//! Intra-procedural def-use extraction: the statement-level layer the
//! taint analysis runs on.
//!
//! `extract_body` supersedes the call-only body scan of earlier
//! versions. On top of the call sites and `let`-typed locals the
//! call-graph layer already used, it records:
//!
//! * **flows** — `let` initialisers, plain assignments and compound
//!   (`+=`-family) assignments, each with the variable/call/literal
//!   sources of its right-hand side;
//! * **returns** — `return expr;` statements plus the tail expression,
//!   so per-function summaries can say "this function's result carries
//!   its inputs' taint";
//! * **call arguments** — per-argument sources and constant-string
//!   detection (the T1 label analysis needs to know that
//!   `RngStream::named(seed, "task/a")` has a *constant* label while
//!   `named(seed, &label)` does not).
//!
//! Everything stays nominal and flow-insensitive: sources are joined,
//! never killed, so the downstream taint fixpoint is monotone and its
//! result independent of statement order — the same determinism
//! discipline the linter polices.

use crate::lexer::{TokKind, Token};
use crate::parser::{
    ctor_type_head, match_paren, method_callee, path_callee, read_type_head, skip_angles, CallSite,
    Callee, FnDef, KEYWORDS,
};

/// The sources feeding a value: variable reads (with `self.field`
/// composites), call results (indices into the function's call list),
/// float-literal/cast evidence, and the constant-string shape.
#[derive(Debug, Default, Clone)]
pub struct Sources {
    /// Variable names read (sorted, deduped).
    pub vars: Vec<String>,
    /// Indices into [`FnDef::calls`] whose results feed the value.
    pub calls: Vec<usize>,
    /// Whether a float literal or `as f32/f64` cast appears.
    pub has_float_lit: bool,
    /// `Some(content)` when the span is exactly one (possibly
    /// `&`-prefixed) string literal.
    pub lit: Option<String>,
}

/// One call argument: its sources plus the constant-string content when
/// the argument is a lone string literal.
#[derive(Debug, Clone)]
pub struct ArgInfo {
    /// What the argument expression reads.
    pub src: Sources,
    /// The constant string, for label-site analysis.
    pub lit: Option<String>,
}

/// What an assignment writes.
#[derive(Debug, Clone)]
pub enum FlowTarget {
    /// A plain variable (`acc = …`).
    Var(String),
    /// A field chain (`self.state = …`, `ev.time = …`).
    Field {
        /// The full dotted path (`self.state`).
        path: String,
        /// The final field name (`state`).
        field: String,
    },
}

/// Extracts calls, locals, flows and returns from a function body
/// (`tokens[start..end]`, the tokens between the body braces).
pub(crate) fn extract_body(tokens: &[Token], start: usize, end: usize, def: &mut FnDef) {
    // Local type environment: params seed it, `let` bindings extend it.
    // One flat map — shadowing scopes don't matter at this granularity.
    def.locals = def.params.iter().cloned().collect();

    // Token spans to resolve into call indices after the pass.
    let mut flow_spans: Vec<(usize, usize)> = Vec::new();
    let mut ret_spans: Vec<(usize, usize)> = Vec::new();
    let mut arg_spans: Vec<Vec<(usize, usize)>> = Vec::new();
    // `=` tokens already consumed by a `let` statement.
    let mut let_eqs: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();

    let mut i = start;
    while i < end {
        let t = &tokens[i];

        // `let [mut] name …` — record the binding's type head when the
        // annotation, a `Type::ctor(..)` initialiser, a float literal or
        // an `as f32/f64` cast reveals it, plus the initialiser flow.
        if t.is_ident("let") {
            let mut j = i + 1;
            if j < end && tokens[j].is_ident("mut") {
                j += 1;
            }
            if j < end
                && tokens[j].kind == TokKind::Ident
                && !KEYWORDS.contains(&tokens[j].text.as_str())
                && tokens
                    .get(j + 1)
                    .is_some_and(|t| t.is_punct(":") || t.is_punct("="))
            {
                let name = tokens[j].text.clone();
                if tokens[j + 1].is_punct(":") {
                    let (head, _) = read_type_head(tokens, j + 2, end);
                    if let Some(head) = head {
                        def.locals.insert(name.clone(), head);
                    }
                }
                // The initialiser: `=` at statement depth, to the `;`.
                if let Some(eq) = find_stmt_eq(tokens, j + 1, end) {
                    let_eqs.insert(eq);
                    let semi = stmt_end(tokens, eq + 1, end);
                    if !tokens[eq + 1..semi].is_empty() {
                        if !def.locals.contains_key(&name) {
                            if let Some(head) = ctor_type_head(tokens, eq + 1, semi) {
                                def.locals.insert(name.clone(), head);
                            } else if let Some(f) = float_type_of(tokens, eq + 1, semi) {
                                def.locals.insert(name.clone(), f.to_string());
                            }
                        }
                        def.flows.push(Flow {
                            target: FlowTarget::Var(name),
                            src: scan_sources(tokens, eq + 1, semi),
                            line: tokens[j].line,
                            col: tokens[j].col,
                        });
                        flow_spans.push((eq + 1, semi));
                    }
                }
            }
            i += 1;
            continue;
        }

        // `return expr;`
        if t.is_ident("return") {
            let semi = stmt_end(tokens, i + 1, end);
            if i + 1 < semi {
                def.rets.push(scan_sources(tokens, i + 1, semi));
                ret_spans.push((i + 1, semi));
            }
            i += 1;
            continue;
        }

        // Assignments: `target = rhs;` / `target += rhs;` (also -=, *=,
        // /=, %=, ^=). Comparison and arrow forms (`==`, `<=`, `=>`,
        // `->`) and `let`-consumed `=`s are excluded.
        if t.is_punct("=") && !let_eqs.contains(&i) {
            let next_eq = tokens
                .get(i + 1)
                .is_some_and(|n| n.is_punct("=") || n.is_punct(">"));
            let prev = i.checked_sub(1).map(|p| &tokens[p]);
            let prev_cmp = prev.is_some_and(|p| {
                p.is_punct("=") || p.is_punct("!") || p.is_punct("<") || p.is_punct(">")
            });
            if !next_eq && !prev_cmp {
                let compound = prev.is_some_and(|p| {
                    ["+", "-", "*", "/", "%", "^"]
                        .iter()
                        .any(|op| p.is_punct(op))
                });
                let target_end = if compound { i - 1 } else { i };
                if let Some(target) = assign_target(tokens, target_end) {
                    let semi = stmt_end(tokens, i + 1, end);
                    if i + 1 < semi {
                        let at = if compound { i - 1 } else { i };
                        def.flows.push(Flow {
                            target,
                            src: scan_sources(tokens, i + 1, semi),
                            line: tokens[at].line,
                            col: tokens[at].col,
                        });
                        flow_spans.push((i + 1, semi));
                    }
                }
            }
            i += 1;
            continue;
        }

        // A call: identifier followed by `(` (optionally via a
        // `::<T>` turbofish), not preceded by `fn` or a macro bang.
        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            let open = if tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                Some(i + 1)
            } else if tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct("<"))
            {
                let past = skip_angles(tokens, i + 2, end);
                (past < end && tokens[past].is_punct("(")).then_some(past)
            } else {
                None
            };
            if let Some(open) = open {
                let prev = i.checked_sub(1).map(|p| &tokens[p]);
                let callee = match prev {
                    Some(p) if p.is_punct(".") => Some(method_callee(tokens, i)),
                    // Also `Type::parse::<T>(..)`: the `::` before the
                    // name belongs to the path, not the turbofish.
                    Some(p) if p.is_punct("::") => Some(path_callee(tokens, i)),
                    Some(p) if p.is_ident("fn") => None,
                    Some(p) if p.is_punct("!") => None, // macro bang — not a call
                    _ => Some(Callee::Free(t.text.clone())),
                };
                if let Some(callee) = callee {
                    let base = match &callee {
                        Callee::Method { .. } => Some(chain_base(tokens, i)),
                        _ => None,
                    };
                    let close = match_paren(tokens, open, end);
                    let (args, spans) = split_args(tokens, open + 1, close);
                    def.calls.push(CallSite {
                        line: t.line,
                        col: t.col,
                        callee,
                        tok: i,
                        args,
                        base,
                    });
                    arg_spans.push(spans);
                }
            }
        }
        i += 1;
    }

    // Tail expression: the segment after the last statement-depth `;`.
    // A body ending in `;` has no tail at all; a body ending in `}` may
    // end in a value-producing `match`/`if` block, so fall back to the
    // segment containing that block and collect conservatively.
    // Statement keywords head non-value tails and are skipped.
    let (boundary, prev_boundary) = last_stmt_boundary(tokens, start, end);
    let tail_start = if boundary < end {
        Some(boundary)
    } else if end > start && tokens[end - 1].is_punct("}") {
        Some(prev_boundary)
    } else {
        None
    };
    if let Some(tail_start) = tail_start {
        if let Some(first) = tokens[tail_start..end].iter().find(|t| !t.is_punct("}")) {
            let is_stmt = ["let", "for", "while", "loop", "return"]
                .iter()
                .any(|k| first.is_ident(k));
            if !is_stmt {
                def.rets.push(scan_sources(tokens, tail_start, end));
                ret_spans.push((tail_start, end));
            }
        }
    }

    // Resolve call indices for every recorded span by token containment.
    let call_toks: Vec<usize> = def.calls.iter().map(|c| c.tok).collect();
    let calls_in = |span: (usize, usize)| -> Vec<usize> {
        call_toks
            .iter()
            .enumerate()
            .filter(|(_, &t)| span.0 <= t && t < span.1)
            .map(|(i, _)| i)
            .collect()
    };
    for (flow, span) in def.flows.iter_mut().zip(&flow_spans) {
        flow.src.calls = calls_in(*span);
    }
    for (ret, span) in def.rets.iter_mut().zip(&ret_spans) {
        ret.calls = calls_in(*span);
    }
    for (ci, spans) in arg_spans.iter().enumerate() {
        for (ai, span) in spans.iter().enumerate() {
            def.calls[ci].args[ai].src.calls = calls_in(*span);
        }
    }
}

/// One value flow into a variable or field.
#[derive(Debug)]
pub struct Flow {
    /// What is written.
    pub target: FlowTarget,
    /// What the right-hand side reads.
    pub src: Sources,
    /// 1-based line of the assignment.
    pub line: u32,
    /// 1-based column of the assignment.
    pub col: u32,
}

/// The `=` of a `let` statement: first `=` at statement depth before the
/// terminating `;`.
fn find_stmt_eq(tokens: &[Token], start: usize, end: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")")
            || t.is_punct("]")
            || t.is_punct("}")
            || (t.is_punct(">") && depth > 0)
        {
            depth -= 1;
        } else if t.is_punct(";") && depth <= 0 {
            return None;
        } else if t.is_punct("=") && depth <= 0 {
            // `==` can head a `let b = a == c` RHS only *after* the first
            // `=`; before it, `=` at depth 0 is the binding's.
            return Some(j);
        }
        j += 1;
    }
    None
}

/// Index of the `;` ending the statement starting at `start` (brace,
/// bracket and paren depth respected), or of the first unmatched `}`.
fn stmt_end(tokens: &[Token], start: usize, end: usize) -> usize {
    let mut depth = 0isize;
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            return j;
        }
        j += 1;
    }
    end
}

/// `(last, previous)` statement boundaries of the body: indices just
/// past the last two `;`s or block-statement `}`s at body depth.
fn last_stmt_boundary(tokens: &[Token], start: usize, end: usize) -> (usize, usize) {
    let mut depth = 0isize;
    let mut boundary = start;
    let mut prev = start;
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            // Only a *block* close is a statement boundary; a `)` or `]`
            // returning to body depth just ends a tail expression like
            // `rng.next_u64()`.
            if depth == 0 && t.is_punct("}") {
                prev = boundary;
                boundary = j + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            prev = boundary;
            boundary = j + 1;
        }
        j += 1;
    }
    (boundary, prev)
}

/// The assignment target whose last token is at `last` (just before the
/// operator): an identifier, a dotted chain, or an indexed base.
fn assign_target(tokens: &[Token], last: usize) -> Option<FlowTarget> {
    let mut k = last.checked_sub(1)?;
    // `v[idx] = …`: step back over the brackets to the base.
    if tokens[k].is_punct("]") {
        let mut depth = 0isize;
        loop {
            if tokens[k].is_punct("]") {
                depth += 1;
            } else if tokens[k].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
    }
    if tokens[k].kind != TokKind::Ident {
        return None;
    }
    // Collect the dotted chain right-to-left: ident (`.` ident)*.
    let mut segs = vec![tokens[k].text.clone()];
    while k >= 2 && tokens[k - 1].is_punct(".") && tokens[k - 2].kind == TokKind::Ident {
        k -= 2;
        segs.push(tokens[k].text.clone());
    }
    segs.reverse();
    if segs
        .iter()
        .any(|s| KEYWORDS.contains(&s.as_str()) && s != "self")
    {
        return None;
    }
    match segs.as_slice() {
        [one] if one != "self" => Some(FlowTarget::Var(one.clone())),
        [_one] => None,
        many => Some(FlowTarget::Field {
            path: many.join("."),
            field: many.last().cloned().unwrap_or_default(),
        }),
    }
}

/// Collects the variable reads, float evidence and constant-string shape
/// of `tokens[start..end]`. Call indices are filled in afterwards by
/// token containment.
pub(crate) fn scan_sources(tokens: &[Token], start: usize, end: usize) -> Sources {
    let mut src = Sources::default();
    let mut non_amp = 0usize;
    let mut only_str: Option<String> = None;
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        match t.kind {
            TokKind::Str => {
                if non_amp == 0 && only_str.is_none() {
                    only_str = Some(t.text.clone());
                } else {
                    only_str = None;
                }
                non_amp += 1;
            }
            TokKind::Literal => {
                if is_float_lit(&t.text) {
                    src.has_float_lit = true;
                }
                non_amp += 1;
            }
            TokKind::Punct => {
                if !t.is_punct("&") {
                    non_amp += 1;
                    if only_str.is_some() {
                        only_str = None;
                    }
                }
            }
            TokKind::Ident => {
                non_amp += 1;
                if only_str.is_some() {
                    only_str = None;
                }
                let next = tokens.get(j + 1);
                let prev = j.checked_sub(1).map(|p| &tokens[p]);
                if t.text == "f32" || t.text == "f64" {
                    // `as f64` casts are float evidence; other positions
                    // are type syntax, never a variable.
                    if prev.is_some_and(|p| p.is_ident("as")) {
                        src.has_float_lit = true;
                    }
                } else if KEYWORDS.contains(&t.text.as_str()) {
                    // Keywords are never reads; `self` is handled below
                    // through the `self.field` composite.
                } else if next.is_some_and(|n| n.is_punct("(")) {
                    // Call name. Its arguments flow through the call —
                    // the result is linked by call index, so scanning
                    // them here would double-count (and re-introduce
                    // kinds the callee does not return).
                    j = match_paren(tokens, j + 1, end);
                } else if next.is_some_and(|n| n.is_punct("!")) {
                    // Macro name — skip a parenthesised argument list
                    // for the same reason.
                    if tokens.get(j + 2).is_some_and(|n| n.is_punct("(")) {
                        j = match_paren(tokens, j + 2, end);
                    }
                } else if next.is_some_and(|n| n.is_punct("::")) {
                    // Path qualifier (`RngStream::…`, `u64::MAX`).
                } else if prev.is_some_and(|p| p.is_punct("::")) {
                    // Path tail (`u64::MAX`): an associated const, not a
                    // local read.
                } else if prev.is_some_and(|p| p.is_punct(".")) {
                    // Field or method position: only `self.field` reads
                    // register; deeper chains taint through their base.
                    if j >= 2 && tokens[j - 2].is_ident("self") && !is_call_receiver(tokens, j, end)
                    {
                        src.vars.push(format!("self.{}", t.text));
                    }
                } else if is_call_receiver(tokens, j, end) {
                    // Receiver of a direct method call: its taint reaches
                    // the result through the call's receiver mask, not as
                    // an independent read of this span.
                } else {
                    src.vars.push(t.text.clone());
                }
            }
        }
        j += 1;
    }
    src.vars.sort();
    src.vars.dedup();
    if non_amp == 1 {
        src.lit = only_str;
    }
    src
}

/// Splits a call's argument tokens at top-level commas into per-argument
/// [`ArgInfo`]s plus their token spans.
fn split_args(tokens: &[Token], start: usize, end: usize) -> (Vec<ArgInfo>, Vec<(usize, usize)>) {
    let mut args = Vec::new();
    let mut spans = Vec::new();
    let mut arg_start = start;
    let mut depth = 0isize;
    let mut j = start;
    while j <= end {
        let at_end = j == end;
        let is_split = at_end || (depth == 0 && tokens[j].is_punct(","));
        if !at_end {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            }
        }
        if is_split {
            if arg_start < j {
                let src = scan_sources(tokens, arg_start, j);
                let lit = src.lit.clone();
                args.push(ArgInfo { src, lit });
                spans.push((arg_start, j));
            }
            arg_start = j + 1;
            if at_end {
                break;
            }
        }
        j += 1;
    }
    (args, spans)
}

/// Walks a method-call chain leftwards from the name token at `i` to its
/// base receiver, collecting intermediate method names. For
/// `self.weights.values().sum::<f64>()` the base is the `weights` field;
/// for `rng.fork(..)` it is the `rng` binding.
pub(crate) fn chain_base(tokens: &[Token], i: usize) -> crate::parser::Receiver {
    use crate::parser::Receiver;
    let Some(mut k) = i.checked_sub(1) else {
        return Receiver::Opaque(None);
    };
    // k is at the `.` before the method name; step left across links.
    loop {
        let Some(prev) = k.checked_sub(1) else {
            return Receiver::Opaque(None);
        };
        let t = &tokens[prev];
        if t.is_punct(")") {
            // `… .m(..)` link: skip the argument parens backwards.
            let mut depth = 0isize;
            let mut p = prev;
            loop {
                if tokens[p].is_punct(")") {
                    depth += 1;
                } else if tokens[p].is_punct("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                match p.checked_sub(1) {
                    Some(n) => p = n,
                    None => return Receiver::Opaque(None),
                }
            }
            // Optional turbofish between the method name and its parens.
            let mut m = match p.checked_sub(1) {
                Some(n) => n,
                None => return Receiver::Opaque(None),
            };
            if tokens[m].is_punct(">") {
                let mut depth = 0isize;
                loop {
                    if tokens[m].is_punct(">") {
                        depth += 1;
                    } else if tokens[m].is_punct("<") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    match m.checked_sub(1) {
                        Some(n) => m = n,
                        None => return Receiver::Opaque(None),
                    }
                }
                match m.checked_sub(1) {
                    Some(n) if tokens[n].is_punct("::") => match n.checked_sub(1) {
                        Some(nn) => m = nn,
                        None => return Receiver::Opaque(None),
                    },
                    _ => return Receiver::Opaque(None),
                }
            }
            if tokens[m].kind != TokKind::Ident {
                return Receiver::Opaque(None);
            }
            match m.checked_sub(1) {
                Some(d) if tokens[d].is_punct(".") => {
                    k = d;
                    continue;
                }
                // `free_call().m()` / `Path::call().m()` — base is the
                // call result, linked through Sources instead.
                _ => return Receiver::Opaque(Some(tokens[m].text.clone())),
            }
        }
        if t.kind == TokKind::Ident {
            // Walk a dotted ident chain to its head.
            let mut segs = vec![t.text.clone()];
            let mut h = prev;
            while h >= 2 && tokens[h - 1].is_punct(".") && tokens[h - 2].kind == TokKind::Ident {
                h -= 2;
                segs.push(tokens[h].text.clone());
            }
            segs.reverse();
            return match segs.as_slice() {
                [one] if one == "self" => Receiver::SelfValue,
                [first, field] if first == "self" => Receiver::SelfField(field.clone()),
                [one] if !KEYWORDS.contains(&one.as_str()) => Receiver::Ident(one.clone()),
                [] => Receiver::Opaque(None),
                rest => Receiver::Opaque(rest.last().cloned()),
            };
        }
        return Receiver::Opaque(None);
    }
}

/// Whether the ident at `j` is the receiver of a direct method call
/// (`recv.method(..)`). Longer chains (`a.b.c()`) stay conservative:
/// their head still registers as a read.
fn is_call_receiver(tokens: &[Token], j: usize, end: usize) -> bool {
    j + 3 < end
        && tokens[j + 1].is_punct(".")
        && tokens[j + 2].kind == TokKind::Ident
        && tokens[j + 3].is_punct("(")
}

/// Whether a retained number-literal text is a float literal.
pub(crate) fn is_float_lit(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains('e')
        || text.contains('E')
}

/// `f32`/`f64` when the initialiser span is visibly float-typed: it
/// starts with a float literal or casts with `as f32/f64` at top level.
fn float_type_of(tokens: &[Token], start: usize, end: usize) -> Option<&'static str> {
    let first = tokens.get(start)?;
    if first.kind == TokKind::Literal && is_float_lit(&first.text) {
        return Some(if first.text.ends_with("f32") {
            "f32"
        } else {
            "f64"
        });
    }
    let mut j = start;
    while j + 1 < end {
        if tokens[j].is_ident("as") && tokens[j + 1].kind == TokKind::Ident {
            match tokens[j + 1].text.as_str() {
                "f32" => return Some("f32"),
                "f64" => return Some("f64"),
                _ => {}
            }
        }
        j += 1;
    }
    None
}
