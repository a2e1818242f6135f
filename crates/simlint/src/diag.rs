//! Finding representation and rendering.

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule code, e.g. `D3/task-state`.
    pub code: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.code, self.message
        )
    }
}

/// Orders findings for stable output: path, then position, then code.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.code).cmp(&(b.path.as_str(), b.line, b.col, b.code))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_gcc_style() {
        let f = Finding {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            code: "D3/task-state",
            message: "msg".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:3:9: [D3/task-state] msg"
        );
    }

    #[test]
    fn sorts_by_path_then_position() {
        let mk = |path: &str, line: u32, col: u32| Finding {
            path: path.into(),
            line,
            col,
            code: "D3/task-state",
            message: String::new(),
        };
        let mut v = vec![mk("b.rs", 1, 1), mk("a.rs", 9, 1), mk("a.rs", 2, 5)];
        sort_findings(&mut v);
        let order: Vec<(String, u32)> = v.into_iter().map(|f| (f.path, f.line)).collect();
        assert_eq!(
            order,
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }
}
