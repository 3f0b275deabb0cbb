//! `FileSink::create` is a library default, so it must not read the
//! process environment: with the CLI's crash-hook variable set to a
//! zero budget, it still writes every line instead of exiting the
//! process. The variable is process-global, which is why this check
//! runs in a test binary of its own.

use mcp_obs::{read_ledger_file, FileSink, ObsSink, PairEvent, FAIL_AFTER_ENV};

#[test]
fn file_sink_create_ignores_the_fault_hook_variable() {
    std::env::set_var(FAIL_AFTER_ENV, "0");
    let path = std::env::temp_dir().join(format!(
        "mcp_obs_env_default_test_{}.ndjson",
        std::process::id()
    ));
    let event = PairEvent {
        src: 0,
        dst: 1,
        step: "implication".to_owned(),
        class: "multi".to_owned(),
        engine: Some("implication".to_owned()),
        assignments: Vec::new(),
        micros: 1,
        sim_word: None,
        slice_nodes: None,
        slice_vars: None,
        resumed: false,
        static_pass: false,
        cached: false,
        kernel: None,
    };
    {
        let sink = FileSink::create(&path).expect("create");
        // An armed hook with a zero budget would exit the process here.
        sink.record(&event);
        sink.flush().expect("flush");
    }
    let events = read_ledger_file(&path).expect("parse").events;
    std::fs::remove_file(&path).ok();
    assert_eq!(events, vec![event]);
}
