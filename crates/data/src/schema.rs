//! The categorical feature schema of the synthetic Avazu-like dataset.

use serde::{Deserialize, Serialize};

/// One categorical field: a name and its cardinality.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Field name (used in feature hashing, so renames change the hash
    /// space).
    pub name: String,
    /// Number of distinct categorical values.
    pub cardinality: u32,
}

impl FieldSpec {
    /// Creates a field spec.
    ///
    /// # Panics
    ///
    /// Panics if `cardinality` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, cardinality: u32) -> Self {
        let name = name.into();
        assert!(cardinality > 0, "field '{name}' must have cardinality > 0");
        FieldSpec { name, cardinality }
    }
}

/// An ordered set of categorical fields.
///
/// The default schema mirrors the Avazu CTR layout: ad placement, site/app
/// categories, device attributes and the anonymized `C14…C21` variables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<FieldSpec>,
}

impl Schema {
    /// Builds a schema from explicit fields.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty or contains duplicate names.
    #[must_use]
    pub fn new(fields: Vec<FieldSpec>) -> Self {
        assert!(!fields.is_empty(), "schema needs at least one field");
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|g| g.name == f.name),
                "duplicate field name '{}'",
                f.name
            );
        }
        Schema { fields }
    }

    /// The Avazu-like default: 10 categorical fields covering placement,
    /// content category, device attributes and anonymized counters.
    #[must_use]
    pub fn avazu_like() -> Self {
        Schema::new(vec![
            FieldSpec::new("hour_of_day", 24),
            FieldSpec::new("banner_pos", 7),
            FieldSpec::new("site_category", 24),
            FieldSpec::new("app_category", 32),
            FieldSpec::new("device_model", 200),
            FieldSpec::new("device_conn_type", 4),
            FieldSpec::new("c14", 500),
            FieldSpec::new("c17", 300),
            FieldSpec::new("c20", 100),
            FieldSpec::new("c21", 60),
        ])
    }

    /// The fields in order.
    #[must_use]
    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields (never true for constructed
    /// schemas).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl Default for Schema {
    fn default() -> Self {
        Schema::avazu_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avazu_like_has_ten_fields() {
        let s = Schema::avazu_like();
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_names_rejected() {
        let _ = Schema::new(vec![FieldSpec::new("a", 2), FieldSpec::new("a", 3)]);
    }

    #[test]
    #[should_panic(expected = "cardinality > 0")]
    fn zero_cardinality_rejected() {
        let _ = FieldSpec::new("empty", 0);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_schema_rejected() {
        let _ = Schema::new(Vec::new());
    }
}
