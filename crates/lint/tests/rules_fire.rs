//! Negative corpus: one hand-built corrupt netlist per rule, asserting
//! the rule fires exactly once and is anchored to the right nodes.
//!
//! Each case runs its rule in isolation (every other rule disabled) so
//! overlap between rules — a floating gate is usually also unreachable —
//! cannot mask a miscount, then re-runs the full default registry to
//! check the rule still fires among its peers.

use mcp_lint::{Diagnostic, Diagnostics, LintConfig, Registry, Severity, RULES};
use mcp_logic::GateKind;
use mcp_netlist::{Netlist, NetlistBuilder, NodeId, NodeKind};

/// Runs exactly one rule over the netlist: the default registry with
/// every other rule disabled.
fn run_rule(id: &str, nl: &Netlist) -> Diagnostics {
    assert!(RULES.iter().any(|r| r.id == id), "no rule `{id}`");
    let cfg = RULES
        .iter()
        .filter(|r| r.id != id)
        .fold(LintConfig::default(), |cfg, r| cfg.disable(r.id));
    Registry::with_default_rules().run(nl, &cfg)
}

/// Asserts `report` is a single finding of `rule` at `severity`, anchored
/// to exactly `nodes`, and returns it.
fn the_one(report: &Diagnostics, rule: &str, severity: Severity, nodes: &[NodeId]) -> Diagnostic {
    assert_eq!(report.len(), 1, "expected exactly one finding: {report:?}");
    let d = report.iter().next().unwrap().clone();
    assert_eq!(d.rule, rule);
    assert_eq!(d.severity, severity);
    let want: Vec<usize> = nodes.iter().map(|n| n.index()).collect();
    assert_eq!(d.nodes, want, "wrong anchor nodes: {d:?}");
    d
}

/// Checks the full default registry also reports `rule` on this netlist.
fn default_registry_agrees(nl: &Netlist, rule: &str) {
    let report = Registry::with_default_rules().run(nl, &LintConfig::default());
    assert!(
        report.iter().any(|d| d.rule == rule),
        "default registry misses `{rule}`: {report:?}"
    );
}

#[test]
fn comb_cycle_fires_once() {
    // g1 = AND(a, g2); g2 = BUF(g1) — a two-gate loop, plus a healthy gate.
    let mut b = NetlistBuilder::new("cyc");
    let a = b.input("a");
    let q = b.dff("q");
    let g1 = b.gate("g1", GateKind::And, [a, a]).unwrap();
    let g2 = b.gate("g2", GateKind::Buf, [g1]).unwrap();
    let ok = b.gate("ok", GateKind::Not, [a]).unwrap();
    b.rewire_fanin(g1, 1, g2).unwrap();
    b.set_dff_input(q, ok).unwrap();
    b.mark_output(q);
    let nl = b.finish_unchecked();

    let report = run_rule("comb-cycle", &nl);
    let d = the_one(&report, "comb-cycle", Severity::Error, &[g1, g2]);
    assert!(d.message.contains("g1") && d.message.contains("g2"));
    default_registry_agrees(&nl, "comb-cycle");
}

#[test]
fn self_loop_gate_is_a_cycle() {
    let mut b = NetlistBuilder::new("selfcyc");
    let a = b.input("a");
    let g = b.gate("g", GateKind::And, [a, a]).unwrap();
    b.rewire_fanin(g, 1, g).unwrap();
    b.mark_output(g);
    let nl = b.finish_unchecked();
    let report = run_rule("comb-cycle", &nl);
    the_one(&report, "comb-cycle", Severity::Error, &[g]);
}

#[test]
fn unconnected_dff_fires_once() {
    let mut b = NetlistBuilder::new("open");
    let a = b.input("a");
    let q = b.dff("q"); // never connected
    let ok = b.dff("ok");
    b.set_dff_input(ok, a).unwrap();
    b.mark_output(q);
    b.mark_output(ok);
    let nl = b.finish_unchecked();

    let report = run_rule("unconnected-dff", &nl);
    the_one(&report, "unconnected-dff", Severity::Error, &[q]);
    default_registry_agrees(&nl, "unconnected-dff");
}

#[test]
fn multi_driven_dff_fires_once() {
    let mut b = NetlistBuilder::new("md");
    let a = b.input("a");
    let c = b.input("b");
    let q = b.raw_node("q", NodeKind::Dff, vec![a, c]);
    b.mark_output(q);
    let nl = b.finish_unchecked();

    let report = run_rule("multi-driven-dff", &nl);
    let d = the_one(&report, "multi-driven-dff", Severity::Error, &[q]);
    assert!(d.message.contains("2 D drivers"), "{d:?}");
    default_registry_agrees(&nl, "multi-driven-dff");
}

#[test]
fn duplicate_name_fires_once() {
    let mut b = NetlistBuilder::new("dup");
    let a = b.input("x");
    let q = b.dff("q");
    let g = b.gate("x", GateKind::Not, [a]).unwrap(); // name clash with input
    b.set_dff_input(q, g).unwrap();
    b.mark_output(q);
    let nl = b.finish_unchecked();

    let report = run_rule("duplicate-name", &nl);
    let d = the_one(&report, "duplicate-name", Severity::Error, &[a, g]);
    assert!(d.message.contains("`x`"), "{d:?}");
    default_registry_agrees(&nl, "duplicate-name");
}

#[test]
fn floating_net_fires_once() {
    let mut b = NetlistBuilder::new("float");
    let a = b.input("a");
    let q = b.dff("q");
    let keep = b.gate("keep", GateKind::Not, [a]).unwrap();
    // `mid` is read by `tail`; `tail` is read by nothing → only `tail`
    // floats (both are unreachable, which is the other rule's business).
    let mid = b.gate("mid", GateKind::Buf, [a]).unwrap();
    let tail = b.gate("tail", GateKind::Not, [mid]).unwrap();
    b.set_dff_input(q, keep).unwrap();
    b.mark_output(q);
    let nl = b.finish().expect("well-formed apart from hygiene");

    let report = run_rule("floating-net", &nl);
    the_one(&report, "floating-net", Severity::Warn, &[tail]);
    default_registry_agrees(&nl, "floating-net");
}

#[test]
fn unreachable_logic_fires_once_covering_the_dead_cone() {
    let mut b = NetlistBuilder::new("dead");
    let a = b.input("a");
    let q = b.dff("q");
    let keep = b.gate("keep", GateKind::Not, [a]).unwrap();
    let mid = b.gate("mid", GateKind::Buf, [a]).unwrap();
    let tail = b.gate("tail", GateKind::Not, [mid]).unwrap();
    b.set_dff_input(q, keep).unwrap();
    b.mark_output(q);
    let nl = b.finish().expect("well-formed apart from hygiene");

    let report = run_rule("unreachable-logic", &nl);
    let d = the_one(&report, "unreachable-logic", Severity::Warn, &[mid, tail]);
    assert!(d.message.contains("2 gate(s)"), "{d:?}");
    default_registry_agrees(&nl, "unreachable-logic");
}

#[test]
fn zero_width_gate_fires_once() {
    // Only a broken deserializer can produce an empty fanin list; emulate
    // one through the builder's `raw_node` entry point.
    let mut b = NetlistBuilder::new("zw");
    let a = b.raw_node("a", NodeKind::Input, Vec::new());
    let q = b.raw_node("q", NodeKind::Dff, vec![a]);
    let zw = b.raw_node("zw", NodeKind::Gate(GateKind::And), Vec::new());
    let _ok = b.raw_node("ok", NodeKind::Gate(GateKind::Not), vec![a]);
    b.mark_output(q);
    let nl = b.finish_unchecked();

    let report = run_rule("zero-width-gate", &nl);
    let d = the_one(&report, "zero-width-gate", Severity::Error, &[zw]);
    assert!(d.message.contains("`zw`"), "{d:?}");
    default_registry_agrees(&nl, "zero-width-gate");
}

#[test]
fn bad_arity_fires_once() {
    // g = NOT(a, q) feeding q: the gate evaluators would panic on it, so
    // the full registry (every rule evaluates over the shared index) must
    // report it instead. A zero-width gate is the other rule's finding.
    let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(g)\ng = NOT(a, q)\nzw = AND()\n";
    let nl = mcp_netlist::bench::parse_unchecked("arity", src).expect("parse");
    let g = nl.find_node("g").unwrap();

    let report = run_rule("bad-arity", &nl);
    let d = the_one(&report, "bad-arity", Severity::Error, &[g]);
    assert_eq!(d.message, "gate `g` of kind NOT cannot take 2 inputs");
    default_registry_agrees(&nl, "bad-arity");
    let cfg = LintConfig::default().disable("bad-arity");
    let report = Registry::with_default_rules().run(&nl, &cfg);
    assert!(report.iter().all(|d| d.rule != "bad-arity"), "{report:?}");
    assert!(report.iter().any(|d| d.rule == "zero-width-gate"));
}

#[test]
fn constant_dff_fires_once() {
    let mut b = NetlistBuilder::new("cdff");
    let a = b.input("a");
    let one = b.constant("one", true);
    let q = b.dff("q");
    let ok = b.dff("ok");
    // q.D = OR(a, 1) — provably constant 1.
    let g = b.gate("g", GateKind::Or, [a, one]).unwrap();
    b.set_dff_input(q, g).unwrap();
    b.set_dff_input(ok, a).unwrap();
    b.mark_output(q);
    b.mark_output(ok);
    let nl = b.finish().unwrap();

    let report = run_rule("constant-dff", &nl);
    let d = the_one(&report, "constant-dff", Severity::Warn, &[q]);
    assert!(d.message.contains("constant 1"), "{d:?}");
    default_registry_agrees(&nl, "constant-dff");
}

#[test]
fn dangling_ff_fires_once() {
    let mut b = NetlistBuilder::new("dang");
    let a = b.input("a");
    let q = b.dff("q"); // driven but never read, not an output
    let ok = b.dff("ok");
    b.set_dff_input(q, a).unwrap();
    b.set_dff_input(ok, a).unwrap();
    b.mark_output(ok);
    let nl = b.finish().unwrap();

    let report = run_rule("dangling-ff", &nl);
    the_one(&report, "dangling-ff", Severity::Warn, &[q]);
    default_registry_agrees(&nl, "dangling-ff");
}

#[test]
fn const_foldable_fires_once_aggregated() {
    let mut b = NetlistBuilder::new("cf");
    let a = b.input("a");
    let zero = b.constant("zero", false);
    let q = b.dff("q");
    // g1 = AND(a, 0) → 0; g2 = NOT(g1) → 1; live = OR(g2, a) is NOT
    // foldable (g2 is constant 1 but OR(1, a) is... constant 1 — pick XOR).
    let g1 = b.gate("g1", GateKind::And, [a, zero]).unwrap();
    let g2 = b.gate("g2", GateKind::Not, [g1]).unwrap();
    let live = b.gate("live", GateKind::Xor, [g2, a]).unwrap();
    b.set_dff_input(q, live).unwrap();
    b.mark_output(q);
    let nl = b.finish().unwrap();

    let report = run_rule("const-foldable", &nl);
    let d = the_one(&report, "const-foldable", Severity::Info, &[g1, g2]);
    assert!(d.message.contains("2 gate(s)"), "{d:?}");
}

#[test]
fn const_foldable_count_matches_sweep() {
    let mut b = NetlistBuilder::new("cfsweep");
    let a = b.input("a");
    let zero = b.constant("zero", false);
    let q = b.dff("q");
    let g1 = b.gate("g1", GateKind::And, [a, zero]).unwrap();
    let g2 = b.gate("g2", GateKind::Not, [g1]).unwrap();
    let live = b.gate("live", GateKind::Xor, [g2, a]).unwrap();
    b.set_dff_input(q, live).unwrap();
    b.mark_output(q);
    let nl = b.finish().unwrap();

    let report = run_rule("const-foldable", &nl);
    let flagged = report.iter().next().map_or(0, |d| d.nodes.len());
    let (_, stats) = mcp_netlist::sweep(&nl);
    // sweep folds exactly the provably-constant gates the lint flags
    // (later rounds may cascade further, so sweep's count is a floor).
    assert!(
        stats.folded_constant >= flagged,
        "sweep folded {} but lint flagged {flagged}",
        stats.folded_constant
    );
    assert!(flagged >= 2);
}

#[test]
fn self_loop_dff_fires_once() {
    let mut b = NetlistBuilder::new("loopff");
    let a = b.input("a");
    let q = b.dff("q");
    let ok = b.dff("ok");
    let hold = b.gate("hold", GateKind::And, [q, a]).unwrap();
    b.set_dff_input(q, hold).unwrap();
    b.set_dff_input(ok, a).unwrap();
    b.mark_output(q);
    b.mark_output(ok);
    let nl = b.finish().unwrap();

    let report = run_rule("self-loop-dff", &nl);
    the_one(&report, "self-loop-dff", Severity::Info, &[q]);
}

#[test]
fn x_prop_to_dff_fires_on_a_pi_free_counter() {
    // q.D = NOT(q): a free-running toggle no input can ever set. The
    // healthy FF is fed from a PI and must stay clean.
    let mut b = NetlistBuilder::new("xprop");
    let a = b.input("a");
    let q = b.dff("q");
    let ok = b.dff("ok");
    let n = b.gate("n", GateKind::Not, [q]).unwrap();
    b.set_dff_input(q, n).unwrap();
    b.set_dff_input(ok, a).unwrap();
    b.mark_output(q);
    b.mark_output(ok);
    let nl = b.finish().unwrap();

    let report = run_rule("x-prop-to-dff", &nl);
    let d = the_one(&report, "x-prop-to-dff", Severity::Info, &[q]);
    assert!(d.message.contains("power-up X"), "{d:?}");
    default_registry_agrees(&nl, "x-prop-to-dff");

    // Negative: route the PI into the counter and the finding vanishes.
    let mut b = NetlistBuilder::new("xprop_ok");
    let a = b.input("a");
    let q = b.dff("q");
    let n = b.gate("n", GateKind::Xor, [q, a]).unwrap();
    b.set_dff_input(q, n).unwrap();
    b.mark_output(q);
    let nl = b.finish().unwrap();
    assert!(run_rule("x-prop-to-dff", &nl).is_empty());
}

#[test]
fn unobservable_logic_fires_behind_a_constant_shadow() {
    // dead = NOT(a) only feeds forced = OR(dead, 1): structurally live,
    // semantically unable to influence the FF behind the constant.
    let mut b = NetlistBuilder::new("dark");
    let a = b.input("a");
    let one = b.constant("one", true);
    let q = b.dff("q");
    let dead = b.gate("dead", GateKind::Not, [a]).unwrap();
    let forced = b.gate("forced", GateKind::Or, [dead, one]).unwrap();
    b.set_dff_input(q, forced).unwrap();
    b.mark_output(q);
    let nl = b.finish().unwrap();

    let report = run_rule("unobservable-logic", &nl);
    let d = the_one(&report, "unobservable-logic", Severity::Warn, &[dead]);
    assert!(d.message.contains("shadowed by constants"), "{d:?}");
    default_registry_agrees(&nl, "unobservable-logic");

    // Negative: without the constant the same shape is fully observable.
    let mut b = NetlistBuilder::new("lit");
    let a = b.input("a");
    let c = b.input("c");
    let q = b.dff("q");
    let dead = b.gate("dead", GateKind::Not, [a]).unwrap();
    let forced = b.gate("forced", GateKind::Or, [dead, c]).unwrap();
    b.set_dff_input(q, forced).unwrap();
    b.mark_output(q);
    let nl = b.finish().unwrap();
    assert!(run_rule("unobservable-logic", &nl).is_empty());
}

#[test]
fn const_implied_net_fires_on_a_register_ladder() {
    // g1 = OR(a, 1) is combinationally constant (const-foldable's
    // business); q1, g2, q2 become constant only through clock edges.
    let mut b = NetlistBuilder::new("ladder");
    let a = b.input("a");
    let one = b.constant("one", true);
    let q1 = b.dff("q1");
    let q2 = b.dff("q2");
    let g1 = b.gate("g1", GateKind::Or, [a, one]).unwrap();
    let g2 = b.gate("g2", GateKind::Buf, [q1]).unwrap();
    let live = b.gate("live", GateKind::Xor, [q2, a]).unwrap();
    b.set_dff_input(q1, g1).unwrap();
    b.set_dff_input(q2, g2).unwrap();
    b.mark_output(live);
    let nl = b.finish().unwrap();

    let report = run_rule("const-implied-net", &nl);
    let d = the_one(&report, "const-implied-net", Severity::Warn, &[q1, q2, g2]);
    assert!(d.message.contains("after 2 clock edge(s)"), "{d:?}");
    default_registry_agrees(&nl, "const-implied-net");

    // Negative: no CONST driver, no sequential constants.
    let mut b = NetlistBuilder::new("noconst");
    let a = b.input("a");
    let q = b.dff("q");
    b.set_dff_input(q, a).unwrap();
    b.mark_output(q);
    let nl = b.finish().unwrap();
    assert!(run_rule("const-implied-net", &nl).is_empty());
}

/// Builds one load-enabled FF: `q.D = OR(AND(q, NOT en), AND(data, en))`.
fn load_enabled_ff(b: &mut NetlistBuilder, tag: &str, data: NodeId, en: NodeId) -> NodeId {
    let q = b.dff(format!("q{tag}"));
    let ne = b.gate(format!("ne{tag}"), GateKind::Not, [en]).unwrap();
    let hold = b
        .gate(format!("hold{tag}"), GateKind::And, [q, ne])
        .unwrap();
    let load = b
        .gate(format!("load{tag}"), GateKind::And, [data, en])
        .unwrap();
    let d = b
        .gate(format!("d{tag}"), GateKind::Or, [hold, load])
        .unwrap();
    b.set_dff_input(q, d).unwrap();
    q
}

#[test]
fn domain_mixing_fires_across_enable_domains() {
    let mut b = NetlistBuilder::new("mix");
    let data = b.input("data");
    let en1 = b.input("en1");
    let en2 = b.input("en2");
    let q1 = load_enabled_ff(&mut b, "1", data, en1);
    let q2 = load_enabled_ff(&mut b, "2", q1, en2);
    b.mark_output(q2);
    let nl = b.finish().unwrap();

    let report = run_rule("domain-mixing", &nl);
    let d = the_one(&report, "domain-mixing", Severity::Info, &[q1, q2]);
    assert!(d.message.contains("q1 -> q2"), "{d:?}");
    default_registry_agrees(&nl, "domain-mixing");

    // Negative: the same transfer under one shared enable is one domain.
    let mut b = NetlistBuilder::new("same");
    let data = b.input("data");
    let en = b.input("en");
    let q1 = load_enabled_ff(&mut b, "1", data, en);
    let q2 = load_enabled_ff(&mut b, "2", q1, en);
    b.mark_output(q2);
    let nl = b.finish().unwrap();
    assert!(run_rule("domain-mixing", &nl).is_empty());
}

// ---------------------------------------------------------------------
// Registry configuration behaviour
// ---------------------------------------------------------------------

fn dangling_ff_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("cfg");
    let a = b.input("a");
    let q = b.dff("q");
    let ok = b.dff("ok");
    b.set_dff_input(q, a).unwrap();
    b.set_dff_input(ok, a).unwrap();
    b.mark_output(ok);
    b.finish().unwrap()
}

#[test]
fn disabled_rules_do_not_run() {
    let nl = dangling_ff_netlist();
    let cfg = LintConfig::default().disable("dangling-ff");
    let report = Registry::with_default_rules().run(&nl, &cfg);
    assert!(report.iter().all(|d| d.rule != "dangling-ff"));
}

#[test]
fn deny_escalates_to_error() {
    let nl = dangling_ff_netlist();
    let cfg = LintConfig::default().deny("dangling-ff");
    let report = Registry::with_default_rules().run(&nl, &cfg);
    let d = report.iter().find(|d| d.rule == "dangling-ff").unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(report.has_errors());
}

#[test]
fn errors_only_drops_warnings() {
    let nl = dangling_ff_netlist();
    let report = Registry::with_default_rules().run(&nl, &LintConfig::errors_only());
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn clean_circuit_yields_empty_report_and_json_round_trip() {
    let mut b = NetlistBuilder::new("clean");
    let a = b.input("a");
    let q = b.dff("q");
    let g = b.gate("g", GateKind::Not, [a]).unwrap();
    b.set_dff_input(q, g).unwrap();
    b.mark_output(q);
    let nl = b.finish().unwrap();
    let report = Registry::with_default_rules().run(&nl, &LintConfig::default());
    assert!(report.is_empty(), "{report:?}");
    assert_eq!(report.max_severity(), None);

    // JSON shape survives a round trip even when non-empty.
    let dirty = Registry::with_default_rules().run(&dangling_ff_netlist(), &LintConfig::default());
    let text = dirty.render_json();
    let back: Diagnostics = serde_json::from_str(&text).expect("parse");
    assert_eq!(back, dirty);
}
