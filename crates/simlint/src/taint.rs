//! The T-rule family: interprocedural determinism-taint dataflow.
//!
//! | code | rule | what it guards |
//! |------|------|----------------|
//! | `T0/unresolved-config` | every `seed_args`/`label_args` spec parses | a typoed spec is a gate that silently does nothing |
//! | `T1/rng-stream-aliasing` | rng stream labels are constant and unique | two streams created under one label draw identical sequences |
//! | `T2/rng-escape` | draws stay inside the compute phase | a drawn value written into shared/merge state or an event time/seq field couples the schedule to the draw order |
//! | `T4/seed-provenance` | stream seeds trace to the experiment seed/config | seeding from a drawn or float-cast value breaks replayability |
//!
//! The analysis is a three-bit taint lattice over the [`crate::dataflow`]
//! def-use extraction: [`DRAWN`] (came out of an rng draw), [`FLOATY`]
//! (float-valued or float-cast) and [`STREAM`] (the value *is* an rng
//! stream). Per-function summaries — intrinsic return taint, per-param
//! return passthrough, and "param *n* reaches a seed/escape sink" facts —
//! are iterated to a global fixpoint over the [`crate::callgraph`], so a
//! draw that funnels through two helper calls into a seed argument is
//! still caught, and the finding fires at the call site where the tainted
//! value enters the callee. All joins are monotone and all maps ordered,
//! so the fixpoint terminates and its output is deterministic — the same
//! discipline the linter polices.
//!
//! The T-rules police the same worker-reachable set as the P-rules
//! (one walk in [`crate::purity`] from the `[rules.worker-purity]`
//! entries, pruned at `exempt`); inline `simlint::allow` comments waive
//! individual findings with a reviewed reason.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, ResolvedCall};
use crate::config::Config;
use crate::dataflow::{FlowTarget, Sources};
use crate::diag::Finding;
use crate::parser::{parse_file, FnDef, Receiver};
use crate::purity::{Reach, SinkSpec};
use crate::symbols::{FnId, SymbolTable};

/// Taint bit: the value came out of an rng draw.
pub const DRAWN: u8 = 1;
/// Taint bit: the value is float-valued or passed through a float cast.
pub const FLOATY: u8 = 2;
/// Taint bit: the value *is* an rng stream.
pub const STREAM: u8 = 4;

/// The three concrete taint kinds, as a wide-lattice mask.
const KIND_MASK: u64 = 7;
/// First lattice bit used for param-carry tracking.
const PARAM_BASE: u32 = 3;
/// Params beyond this index are not carry-tracked (joined approximately).
const MAX_PARAMS: usize = 60;

/// Bit for "carries parameter `i` of the enclosing function".
fn carry(i: usize) -> u64 {
    if i < MAX_PARAMS {
        1u64 << (PARAM_BASE + i as u32)
    } else {
        0
    }
}

/// One function's externally visible taint behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintSummary {
    /// Intrinsic taint of the return value ([`DRAWN`]`|`[`FLOATY`]`|`
    /// [`STREAM`] bits), independent of what callers pass in.
    pub ret_mask: u8,
    /// `ret_params[i]`: whether parameter `i`'s taint flows into the
    /// return value.
    pub ret_params: Vec<bool>,
    /// `seed_params[i]`: when parameter `i` reaches a seed-position
    /// argument (rule T4) somewhere in or under this function, the
    /// display name of the seed sink it reaches.
    pub seed_params: Vec<Option<String>>,
    /// `escape_params[i]`: when parameter `i` reaches a shared-state
    /// escape sink (rule T2) somewhere in or under this function, the
    /// display name of the sink it reaches.
    pub escape_params: Vec<Option<String>>,
}

/// Internal per-function summary on the wide lattice.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Summary {
    /// Return mask: kind bits plus param-carry bits.
    ret: u64,
    seed_params: Vec<Option<String>>,
    escape_params: Vec<Option<String>>,
}

/// Per-function fixpoint state: variable and call-result masks.
#[derive(Debug, Default)]
struct FnState {
    vars: BTreeMap<String, u64>,
    calls: Vec<u64>,
}

/// A `name:argindex` / `Type::method:argindex` argument-position spec
/// (`seed_args`, `label_args`).
#[derive(Debug)]
struct ArgSpec {
    ty: Option<String>,
    name: String,
    arg: usize,
}

impl ArgSpec {
    fn parse(raw: &str) -> Option<ArgSpec> {
        let (head, idx) = raw.rsplit_once(':')?;
        let arg = idx.parse().ok()?;
        let (ty, name) = match head.rsplit_once("::") {
            Some((t, n)) => (Some(t.to_string()), n.to_string()),
            None => (None, head.to_string()),
        };
        if name.is_empty() {
            return None;
        }
        Some(ArgSpec { ty, name, arg })
    }

    fn matches(&self, graph: &CallGraph, rc: &ResolvedCall) -> bool {
        if rc.name != self.name {
            return false;
        }
        match &self.ty {
            None => true,
            Some(ty) => {
                rc.recv_types.iter().any(|t| t == ty)
                    || rc
                        .targets
                        .iter()
                        .any(|&t| graph.symbols.fns[t].def.owner.as_deref() == Some(ty.as_str()))
            }
        }
    }
}

/// Display name of a call for diagnostics: `Type::method` when the
/// receiver/path type is known, the bare name otherwise.
fn call_display(rc: &ResolvedCall) -> String {
    match rc.recv_types.first() {
        Some(ty) => format!("{ty}::{}", rc.name),
        None => rc.name.clone(),
    }
}

/// The per-function analysis context.
struct FnCtx<'a> {
    graph: &'a CallGraph,
    cfg: &'a Config,
    id: FnId,
    def: &'a FnDef,
    seed_specs: &'a [ArgSpec],
    escape_specs: &'a [SinkSpec],
    /// Exempt functions contribute no seed/escape sink evidence: their
    /// value flow (ret kinds) still propagates, but a sink inside them —
    /// or reached through them — is a reviewed non-violation.
    exempt: &'a BTreeSet<FnId>,
}

impl FnCtx<'_> {
    /// Intrinsic taint kind of a type head.
    fn kind_of(&self, ty: &str) -> u64 {
        if ty == "f32" || ty == "f64" {
            u64::from(FLOATY)
        } else if self.cfg.stream_types.iter().any(|s| s == ty) {
            u64::from(STREAM)
        } else {
            0
        }
    }

    /// Type-derived seed of a name: locals for plain bindings, the
    /// owner's struct fields for `self.field`, the owner itself for
    /// `self`.
    fn base_seed(&self, name: &str) -> u64 {
        if name == "self" {
            return self.def.owner.as_deref().map_or(0, |o| self.kind_of(o));
        }
        if let Some(field) = name.strip_prefix("self.") {
            return self
                .def
                .owner
                .as_deref()
                .and_then(|o| self.graph.symbols.field_type(o, field))
                .map_or(0, |ty| self.kind_of(ty));
        }
        self.def.locals.get(name).map_or(0, |ty| self.kind_of(ty))
    }

    fn var_mask(&self, st: &FnState, name: &str) -> u64 {
        st.vars.get(name).copied().unwrap_or(0) | self.base_seed(name)
    }

    fn src_mask(&self, st: &FnState, src: &Sources) -> u64 {
        let mut m = if src.has_float_lit {
            u64::from(FLOATY)
        } else {
            0
        };
        for v in &src.vars {
            m |= self.var_mask(st, v);
        }
        for &ci in &src.calls {
            m |= st.calls.get(ci).copied().unwrap_or(0);
        }
        m
    }

    fn recv_mask(&self, st: &FnState, recv: &Receiver) -> u64 {
        match recv {
            Receiver::SelfValue => self.var_mask(st, "self"),
            Receiver::SelfField(f) => self.var_mask(st, &format!("self.{f}")),
            Receiver::Ident(i) => self.var_mask(st, i),
            Receiver::Opaque(Some(i)) => self.var_mask(st, i),
            Receiver::Opaque(None) => 0,
        }
    }

    /// The result mask of call site `ci` under the current state and
    /// global summaries.
    fn call_mask(&self, st: &FnState, summaries: &[Summary], ci: usize) -> u64 {
        let site = &self.def.calls[ci];
        let rc = &self.graph.calls[self.id][ci];
        let mut arg_m = 0u64;
        for a in &site.args {
            arg_m |= self.src_mask(st, &a.src);
        }
        let recv_m = site.base.as_ref().map_or(0, |r| self.recv_mask(st, r));
        // A method on a stream receiver: fork/clone produce a stream,
        // anything else is a draw. This outranks callee summaries — the
        // stream types' own bodies mix internal state and would otherwise
        // mark `fork` results as drawn. The receiver's param bit is NOT
        // carried: the produced kind already says everything the result
        // owes the stream, and carrying it would let callers re-import
        // the receiver's full mask (a draw is not a stream).
        if rc.is_method && recv_m & u64::from(STREAM) != 0 {
            return if self.cfg.fork_methods.iter().any(|m| m == &rc.name) {
                u64::from(STREAM) | (arg_m & !KIND_MASK)
            } else {
                u64::from(DRAWN) | (arg_m & !KIND_MASK)
            };
        }
        // An associated function on a stream type constructs a stream
        // (`RngStream::named(..)`).
        if !rc.is_method
            && rc
                .recv_types
                .iter()
                .any(|t| self.cfg.stream_types.iter().any(|s| s == t))
        {
            return u64::from(STREAM) | (arg_m & !KIND_MASK);
        }
        if !rc.targets.is_empty() {
            let mut m = 0u64;
            for &t in &rc.targets {
                let s = &summaries[t];
                m |= s.ret & KIND_MASK;
                for (j, a) in site.args.iter().enumerate() {
                    if s.ret & carry(j) != 0 {
                        m |= self.src_mask(st, &a.src);
                    }
                }
            }
            return m;
        }
        // Unresolved (std / vendored) call: conservatively propagate
        // every input, receiver included.
        arg_m | recv_m
    }

    /// Runs the intra-function fixpoint and derives the summary.
    fn analyze(&self, summaries: &[Summary]) -> (FnState, Summary) {
        let mut st = FnState {
            vars: BTreeMap::new(),
            calls: vec![0; self.def.calls.len()],
        };
        for (i, (name, _)) in self.def.params.iter().enumerate() {
            *st.vars.entry(name.clone()).or_insert(0) |= carry(i);
        }
        loop {
            let mut changed = false;
            for ci in 0..self.def.calls.len() {
                // Join, never replace: the stream-receiver precedence
                // makes `call_mask` non-monotone in `st` (a receiver
                // gaining STREAM flips the branch), so only bit *growth*
                // may count as change or the loop never terminates.
                let m = self.call_mask(&st, summaries, ci);
                if st.calls[ci] | m != st.calls[ci] {
                    st.calls[ci] |= m;
                    changed = true;
                }
            }
            for flow in &self.def.flows {
                let m = self.src_mask(&st, &flow.src);
                let key = match &flow.target {
                    FlowTarget::Var(n) => n.clone(),
                    FlowTarget::Field { path, .. } => path.clone(),
                };
                let entry = st.vars.entry(key).or_insert(0);
                if *entry | m != *entry {
                    *entry |= m;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut ret = 0u64;
        for r in &self.def.rets {
            ret |= self.src_mask(&st, r);
        }
        let nparams = self.def.params.len();
        let mut summary = Summary {
            ret,
            seed_params: vec![None; nparams],
            escape_params: vec![None; nparams],
        };
        let record = |slots: &mut [Option<String>], m: u64, what: &str| {
            for (i, slot) in slots.iter_mut().enumerate() {
                if m & carry(i) != 0 && slot.is_none() {
                    *slot = Some(what.to_string());
                }
            }
        };
        // An exempt function's sinks are reviewed non-violations — its
        // summary carries value flow only, so callers never inherit them.
        if self.exempt.contains(&self.id) {
            return (st, summary);
        }
        for (ci, site) in self.def.calls.iter().enumerate() {
            let rc = &self.graph.calls[self.id][ci];
            for spec in self.seed_specs {
                if spec.matches(self.graph, rc) {
                    if let Some(a) = site.args.get(spec.arg) {
                        let m = self.src_mask(&st, &a.src);
                        record(&mut summary.seed_params, m, &call_display(rc));
                    }
                }
            }
            for sink in self.escape_specs {
                if let Some(display) = sink.matches(self.graph, rc) {
                    for a in &site.args {
                        let m = self.src_mask(&st, &a.src);
                        record(&mut summary.escape_params, m, &display);
                    }
                }
            }
            for &t in &rc.targets {
                if self.exempt.contains(&t) {
                    continue;
                }
                for (j, slot) in summaries[t].seed_params.iter().enumerate() {
                    if let (Some(d), Some(a)) = (slot, site.args.get(j)) {
                        let m = self.src_mask(&st, &a.src);
                        record(&mut summary.seed_params, m, d);
                    }
                }
                for (j, slot) in summaries[t].escape_params.iter().enumerate() {
                    if let (Some(d), Some(a)) = (slot, site.args.get(j)) {
                        let m = self.src_mask(&st, &a.src);
                        record(&mut summary.escape_params, m, d);
                    }
                }
            }
        }
        for flow in &self.def.flows {
            if let FlowTarget::Field { path, field } = &flow.target {
                if self.cfg.tainted_fields.iter().any(|f| f == field) {
                    let m = self.src_mask(&st, &flow.src);
                    record(&mut summary.escape_params, m, &format!("`{path}`"));
                }
            }
        }
        (st, summary)
    }
}

/// The whole-workspace taint analysis result.
struct Analysis {
    states: Vec<FnState>,
    summaries: Vec<Summary>,
}

/// Iterates per-function summaries to a global fixpoint.
fn run_analysis(
    graph: &CallGraph,
    cfg: &Config,
    seed_specs: &[ArgSpec],
    escape_specs: &[SinkSpec],
    exempt: &BTreeSet<FnId>,
) -> Analysis {
    let n = graph.symbols.fns.len();
    let mut summaries: Vec<Summary> = (0..n)
        .map(|id| Summary {
            ret: 0,
            seed_params: vec![None; graph.symbols.fns[id].def.params.len()],
            escape_params: vec![None; graph.symbols.fns[id].def.params.len()],
        })
        .collect();
    let mut states: Vec<FnState> = (0..n).map(|_| FnState::default()).collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let ctx = FnCtx {
                graph,
                cfg,
                id,
                def: &graph.symbols.fns[id].def,
                seed_specs,
                escape_specs,
                exempt,
            };
            let (st, summary) = ctx.analyze(&summaries);
            // Join into the stored summary (same termination argument as
            // the intra-function loop): ret bits only grow, sink slots
            // only fill, so the finite lattice forces a fixpoint.
            let cur = &mut summaries[id];
            if cur.ret | summary.ret != cur.ret {
                cur.ret |= summary.ret;
                changed = true;
            }
            let fill =
                |slots: &mut [Option<String>], new: Vec<Option<String>>, changed: &mut bool| {
                    for (slot, n) in slots.iter_mut().zip(new) {
                        if slot.is_none() && n.is_some() {
                            *slot = n;
                            *changed = true;
                        }
                    }
                };
            fill(&mut cur.seed_params, summary.seed_params, &mut changed);
            fill(&mut cur.escape_params, summary.escape_params, &mut changed);
            states[id] = st;
        }
        if !changed {
            break;
        }
    }
    Analysis { states, summaries }
}

/// Computes the per-function taint summaries of a source set — the
/// public window onto the fixpoint, keyed by `Owner::name` display name.
/// Property tests compare this against a naive whole-program oracle.
pub fn function_summaries(
    files: &[(String, String)],
    cfg: &Config,
) -> BTreeMap<String, TaintSummary> {
    let parsed = files
        .iter()
        .map(|(path, source)| parse_file(path, source))
        .collect();
    let symbols = SymbolTable::build(parsed);
    let graph = CallGraph::build(symbols);
    let seed_specs: Vec<ArgSpec> = cfg
        .seed_args
        .iter()
        .filter_map(|s| ArgSpec::parse(s))
        .collect();
    let escape_specs: Vec<SinkSpec> = cfg
        .escape_sinks
        .iter()
        .map(|s| SinkSpec::parse(s))
        .collect();
    let analysis = run_analysis(&graph, cfg, &seed_specs, &escape_specs, &BTreeSet::new());
    let mut out = BTreeMap::new();
    for (id, entry) in graph.symbols.fns.iter().enumerate() {
        let s = &analysis.summaries[id];
        out.insert(
            entry.def.display(),
            TaintSummary {
                ret_mask: (s.ret & KIND_MASK) as u8,
                ret_params: (0..entry.def.params.len())
                    .map(|i| s.ret & carry(i) != 0)
                    .collect(),
                seed_params: s.seed_params.clone(),
                escape_params: s.escape_params.clone(),
            },
        );
    }
    out
}

/// One T1 label site gathered during the reachable walk.
struct LabelSite {
    id: FnId,
    file: String,
    line: u32,
    col: u32,
    display: String,
    label: Option<String>,
}

/// Runs the T-rules over the worker-reachable set, appending findings.
pub(crate) fn check_taint(
    graph: &CallGraph,
    cfg: &Config,
    reach: &Reach,
    findings: &mut Vec<Finding>,
) {
    let symbols = &graph.symbols;
    const SECTION: &str = "rules.determinism-taint";
    let mut parse_arg_specs = |key: &str, raws: &[String]| -> Vec<ArgSpec> {
        let mut out = Vec::new();
        for raw in raws {
            match ArgSpec::parse(raw) {
                Some(spec) => out.push(spec),
                None => findings.push(Finding {
                    path: "simlint.toml".into(),
                    line: 1,
                    col: 1,
                    code: "T0/unresolved-config",
                    message: format!(
                        "[{SECTION}] {key} `{raw}` is malformed — expected \
                         `name:argindex` or `Type::method:argindex`"
                    ),
                }),
            }
        }
        out
    };
    let seed_specs = parse_arg_specs("seed_args", &cfg.seed_args);
    let label_specs = parse_arg_specs("label_args", &cfg.label_args);
    let escape_specs: Vec<SinkSpec> = cfg
        .escape_sinks
        .iter()
        .map(|s| SinkSpec::parse(s))
        .collect();

    let analysis = run_analysis(graph, cfg, &seed_specs, &escape_specs, &reach.exempt);

    let escape_kinds = u64::from(DRAWN) | u64::from(STREAM);
    let seed_kinds = u64::from(DRAWN) | u64::from(FLOATY);
    let mut reported: BTreeSet<(String, u32, u32, &'static str)> = BTreeSet::new();
    let mut label_sites: Vec<LabelSite> = Vec::new();

    for &id in reach.preds.keys() {
        let entry = &symbols.fns[id];
        let def = &entry.def;
        let file = entry.file.clone();
        let st = &analysis.states[id];
        let ctx = FnCtx {
            graph,
            cfg,
            id,
            def,
            seed_specs: &seed_specs,
            escape_specs: &escape_specs,
            exempt: &reach.exempt,
        };
        let chain = reach.path_to(symbols, id);

        for (ci, site) in def.calls.iter().enumerate() {
            let rc = &graph.calls[id][ci];

            // T1: collect stream-label sites for the cross-set pass.
            for spec in &label_specs {
                if spec.matches(graph, rc) {
                    label_sites.push(LabelSite {
                        id,
                        file: file.clone(),
                        line: rc.line,
                        col: rc.col,
                        display: call_display(rc),
                        label: site.args.get(spec.arg).and_then(|a| a.lit.clone()),
                    });
                }
            }

            // T2: drawn values flowing into shared escape sinks.
            for sink in &escape_specs {
                if let Some(display) = sink.matches(graph, rc) {
                    let tainted = site
                        .args
                        .iter()
                        .any(|a| ctx.src_mask(st, &a.src) & escape_kinds != 0);
                    if tainted && reported.insert((file.clone(), rc.line, rc.col, "T2/rng-escape"))
                    {
                        findings.push(Finding {
                            path: file.clone(),
                            line: rc.line,
                            col: rc.col,
                            code: "T2/rng-escape",
                            message: format!(
                                "draw-tainted value flows into shared sink `{display}` — \
                                 path: {chain}; randomness may not escape the compute \
                                 phase into shared or merge state (simlint.toml \
                                 [{SECTION}])"
                            ),
                        });
                    }
                }
            }
            // T2 interprocedural: a tainted argument reaches a sink
            // inside the callee.
            for &t in &rc.targets {
                for (j, slot) in analysis.summaries[t].escape_params.iter().enumerate() {
                    if let (Some(d), Some(a)) = (slot, site.args.get(j)) {
                        if ctx.src_mask(st, &a.src) & escape_kinds != 0
                            && reported.insert((file.clone(), rc.line, rc.col, "T2/rng-escape"))
                        {
                            findings.push(Finding {
                                path: file.clone(),
                                line: rc.line,
                                col: rc.col,
                                code: "T2/rng-escape",
                                message: format!(
                                    "draw-tainted argument reaches shared sink {d} inside \
                                     `{}` — path: {chain}; randomness may not escape the \
                                     compute phase into shared or merge state (simlint.toml \
                                     [{SECTION}])",
                                    symbols.fns[t].def.display()
                                ),
                            });
                        }
                    }
                }
            }

            // T4: drawn/float values seeding a stream.
            for spec in &seed_specs {
                if spec.matches(graph, rc) {
                    if let Some(a) = site.args.get(spec.arg) {
                        if ctx.src_mask(st, &a.src) & seed_kinds != 0
                            && reported.insert((
                                file.clone(),
                                rc.line,
                                rc.col,
                                "T4/seed-provenance",
                            ))
                        {
                            findings.push(Finding {
                                path: file.clone(),
                                line: rc.line,
                                col: rc.col,
                                code: "T4/seed-provenance",
                                message: format!(
                                    "seed argument of `{}` derives from a drawn or \
                                     float-cast value — path: {chain}; seeds must trace to \
                                     the experiment seed or config so replays reproduce \
                                     (simlint.toml [{SECTION}])",
                                    call_display(rc)
                                ),
                            });
                        }
                    }
                }
            }
            // T4 interprocedural.
            for &t in &rc.targets {
                for (j, slot) in analysis.summaries[t].seed_params.iter().enumerate() {
                    if let (Some(d), Some(a)) = (slot, site.args.get(j)) {
                        if ctx.src_mask(st, &a.src) & seed_kinds != 0
                            && reported.insert((
                                file.clone(),
                                rc.line,
                                rc.col,
                                "T4/seed-provenance",
                            ))
                        {
                            findings.push(Finding {
                                path: file.clone(),
                                line: rc.line,
                                col: rc.col,
                                code: "T4/seed-provenance",
                                message: format!(
                                    "argument reaches the seed of `{d}` inside `{}` while \
                                     carrying drawn or float taint — path: {chain}; seeds \
                                     must trace to the experiment seed or config \
                                     (simlint.toml [{SECTION}])",
                                    symbols.fns[t].def.display()
                                ),
                            });
                        }
                    }
                }
            }
        }

        // T2: drawn values assigned into time/seq fields.
        for flow in &def.flows {
            if let FlowTarget::Field { path, field } = &flow.target {
                if cfg.tainted_fields.iter().any(|f| f == field)
                    && ctx.src_mask(st, &flow.src) & escape_kinds != 0
                    && reported.insert((file.clone(), flow.line, flow.col, "T2/rng-escape"))
                {
                    findings.push(Finding {
                        path: file.clone(),
                        line: flow.line,
                        col: flow.col,
                        code: "T2/rng-escape",
                        message: format!(
                            "draw-tainted value assigned to `{path}` — path: {chain}; \
                             `{field}` orders the deterministic merge and must not \
                             depend on draw order (simlint.toml [{SECTION}])"
                        ),
                    });
                }
            }
        }
    }

    // T1 cross-set pass: constant labels colliding anywhere in the
    // reachable set, plus non-constant labels per site.
    let mut by_label: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, site) in label_sites.iter().enumerate() {
        match &site.label {
            Some(label) => by_label.entry(label.clone()).or_default().push(i),
            None => {
                if reported.insert((
                    site.file.clone(),
                    site.line,
                    site.col,
                    "T1/rng-stream-aliasing",
                )) {
                    let chain = reach.path_to(symbols, site.id);
                    findings.push(Finding {
                        path: site.file.clone(),
                        line: site.line,
                        col: site.col,
                        code: "T1/rng-stream-aliasing",
                        message: format!(
                            "rng stream label for `{}` is not a constant string — path: \
                             {chain}; non-literal labels cannot be audited for stream \
                             aliasing: use a string literal, or suppress with a reviewed \
                             `simlint::allow` (simlint.toml [{SECTION}])",
                            site.display
                        ),
                    });
                }
            }
        }
    }
    for (label, group) in &by_label {
        let distinct: BTreeSet<(String, u32, u32)> = group
            .iter()
            .map(|&i| {
                let s = &label_sites[i];
                (s.file.clone(), s.line, s.col)
            })
            .collect();
        if distinct.len() < 2 {
            continue;
        }
        for &i in group {
            let site = &label_sites[i];
            let other = group
                .iter()
                .map(|&j| &label_sites[j])
                .find(|o| {
                    (o.file.as_str(), o.line, o.col) != (site.file.as_str(), site.line, site.col)
                })
                .expect("distinct.len() >= 2 guarantees another site");
            if reported.insert((
                site.file.clone(),
                site.line,
                site.col,
                "T1/rng-stream-aliasing",
            )) {
                let chain = reach.path_to(symbols, site.id);
                findings.push(Finding {
                    path: site.file.clone(),
                    line: site.line,
                    col: site.col,
                    code: "T1/rng-stream-aliasing",
                    message: format!(
                        "rng stream label \"{label}\" is also used at {}:{}:{} — path: \
                         {chain}; streams sharing a label draw identical sequences: give \
                         each stream a distinct label (simlint.toml [{SECTION}])",
                        other.file, other.line, other.col
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(entries: &[&str]) -> Config {
        Config {
            purity_entries: entries.iter().map(ToString::to_string).collect(),
            escape_sinks: vec!["EventQueue::push".into()],
            ..Config::default()
        }
    }

    fn run(src: &str, cfg: &Config) -> Vec<String> {
        let files = [("crates/a/src/lib.rs".to_string(), src.to_string())];
        let (findings, _) = crate::purity::workspace_findings(&files, cfg);
        findings.iter().map(ToString::to_string).collect()
    }

    fn summaries(src: &str) -> BTreeMap<String, TaintSummary> {
        let files = vec![("crates/a/src/lib.rs".to_string(), src.to_string())];
        function_summaries(&files, &Config::default())
    }

    const STREAM_DEF: &str = "struct RngStream { state: u64 }\nimpl RngStream {\n    fn named(seed: u64, label: &str) -> RngStream { RngStream { state: seed ^ label.len() as u64 } }\n    fn fork(&mut self, label: &str) -> RngStream { RngStream { state: self.state ^ label.len() as u64 } }\n    fn next_u64(&mut self) -> u64 { self.state = self.state.wrapping_mul(3); self.state }\n}\n";

    #[test]
    fn draw_summary_propagates_through_helpers() {
        let src = format!(
            "{STREAM_DEF}fn draw_one(rng: &mut RngStream) -> u64 {{ rng.next_u64() }}\nfn relay(rng: &mut RngStream) -> u64 {{ draw_one(rng) }}\nfn passthrough(x: u64) -> u64 {{ x }}\n"
        );
        let s = summaries(&src);
        assert_eq!(s["draw_one"].ret_mask, DRAWN);
        assert_eq!(s["relay"].ret_mask, DRAWN);
        assert_eq!(s["passthrough"].ret_mask, 0);
        assert_eq!(s["passthrough"].ret_params, vec![true]);
    }

    #[test]
    fn fork_results_stay_streams_and_seeds_track_params() {
        let src = format!(
            "{STREAM_DEF}fn spawn(rng: &mut RngStream) -> RngStream {{ rng.fork(\"child\") }}\nfn reseed(seed: u64) -> RngStream {{ RngStream::named(seed, \"root\") }}\n"
        );
        let s = summaries(&src);
        assert_eq!(s["spawn"].ret_mask, STREAM);
        assert_eq!(s["reseed"].ret_mask, STREAM);
        assert_eq!(
            s["reseed"].seed_params,
            vec![Some("RngStream::named".into())]
        );
    }

    #[test]
    fn t4_fires_on_drawn_seed_through_a_helper() {
        let src = format!(
            "{STREAM_DEF}fn mk(seed: u64) -> RngStream {{ RngStream::named(seed, \"aux\") }}\nfn entry(rng: &mut RngStream) {{\n    let v = rng.next_u64();\n    let _child = mk(v);\n}}\n"
        );
        let findings = run(&src, &cfg(&["entry"]));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("[T4/seed-provenance]")
                && findings[0].contains("`RngStream::named`")
                && findings[0].contains("inside `mk`"),
            "{}",
            findings[0]
        );
    }

    #[test]
    fn t1_groups_collisions_across_the_reachable_set() {
        let src = format!(
            "{STREAM_DEF}fn entry(seed: u64) {{\n    let mut a = RngStream::named(seed, \"worker\");\n    let _b = a.fork(\"worker\");\n}}\n"
        );
        let findings = run(&src, &cfg(&["entry"]));
        assert_eq!(findings.len(), 2, "{findings:?}");
        for f in &findings {
            assert!(f.contains("[T1/rng-stream-aliasing]"), "{f}");
            assert!(f.contains("\"worker\""), "{f}");
        }
    }

    #[test]
    fn t2_fires_when_a_draw_escapes_into_a_shared_sink() {
        let src = format!(
            "{STREAM_DEF}struct EventQueue {{}}\nimpl EventQueue {{ fn push(&mut self, t: u64) {{ let _ = t; }} }}\nstruct W {{ queue: EventQueue }}\nimpl W {{\n    fn entry(&mut self, rng: &mut RngStream) {{\n        let t = rng.next_u64();\n        self.queue.push(t);\n    }}\n}}\n"
        );
        let findings = run(&src, &cfg(&["W::entry"]));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("[T2/rng-escape]") && findings[0].contains("`EventQueue::push`"),
            "{}",
            findings[0]
        );
    }

    #[test]
    fn malformed_arg_specs_are_t0_findings() {
        // The stale entry is the shared walk's to report — once, as P0.
        let mut c = cfg(&["Ghost::entry"]);
        c.seed_args.push("broken-spec".into());
        let findings = run(STREAM_DEF, &c);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.contains("[P0/unresolved-config]")
            && f.contains("entry `Ghost::entry` matches no function")));
        assert!(findings.iter().any(|f| f.contains("[T0/unresolved-config]")
            && f.contains("seed_args `broken-spec` is malformed")));
    }

    #[test]
    fn empty_entry_list_disables_the_taint_rules() {
        let src = format!(
            "{STREAM_DEF}fn entry(rng: &mut RngStream) -> RngStream {{ let v = rng.next_u64(); RngStream::named(v, \"x\") }}\n"
        );
        let findings = run(&src, &cfg(&[]));
        assert_eq!(findings, Vec::<String>::new());
    }
}
