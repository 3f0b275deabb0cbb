//! The `serve` subcommand: a minimal analysis server answering NDJSON
//! requests over a Unix domain socket.
//!
//! One request per line, one JSON response line per request:
//!
//! ```text
//! -> {"op":"analyze","path":"s1423.bench"}
//! <- {"ok":true,"circuit":"s1423","cache_hit":true,"report":{...}}
//! -> {"op":"analyze","path":"s1423_eco.bench","eco":"s1423.bench"}
//! <- {"ok":true,"circuit":"s1423_eco","cache_hit":false,"report":{...}}
//! -> {"op":"shutdown"}
//! <- {"ok":true}
//! ```
//!
//! The artifact store named by `--cache-dir` stays resident for the
//! server's lifetime, so a repeat request for an unchanged netlist is a
//! pure cache replay and an `eco` request re-verifies only the touched
//! sink groups. The `report` field is the canonical form (timings
//! zeroed, no metrics), byte-identical to `analyze --json --canonical`
//! output.
//! Malformed requests get an `{"ok":false,"error":...}` line; they never
//! take the server down.

use super::analyze::open_store;
use super::{load, Command};
use mcp_core::{analyze_cached_with, analyze_eco_with, CasLock, CasStore};
use serde::Content;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};

/// `serve`: accept connections on `socket` until a `shutdown` request.
pub(crate) fn serve(cmd: &Command, socket: &str, out: &mut String) -> Result<(), String> {
    let store = open_store(cmd)?.ok_or_else(|| "`serve` needs --cache-dir".to_owned())?;
    // Mark the store as held by a live process so `cache gc` refuses to
    // evict entries out from under resident requests. Released on drop
    // when the accept loop ends; a crash leaves a stale lock that the
    // next acquire or gc breaks by pid liveness.
    let _lock = CasLock::acquire(&store).map_err(|e| e.to_string())?;
    // A stale socket file from a crashed server would make bind fail.
    let _ = std::fs::remove_file(socket);
    let listener =
        UnixListener::bind(socket).map_err(|e| format!("cannot bind `{socket}`: {e}"))?;
    eprintln!(
        "mcpath serve: listening on `{socket}` (cache: {})",
        store.root().display()
    );
    let mut requests = 0u64;
    'accept: for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mcpath serve: accept failed: {e}");
                continue;
            }
        };
        match handle_connection(cmd, &store, stream, &mut requests) {
            Ok(true) => break 'accept,
            Ok(false) => {}
            Err(e) => eprintln!("mcpath serve: connection error: {e}"),
        }
    }
    let _ = std::fs::remove_file(socket);
    out.push_str(&format!("served {requests} request(s) on `{socket}`\n"));
    Ok(())
}

/// Answers every request line on one connection. Returns `Ok(true)` when
/// a `shutdown` request was served and the accept loop should stop.
///
/// Lines are read as raw bytes: a line that is not UTF-8 is a malformed
/// request like any other, answered with an error line, and the
/// connection keeps serving.
fn handle_connection(
    cmd: &Command,
    store: &CasStore,
    stream: UnixStream,
    requests: &mut u64,
) -> Result<bool, String> {
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    let mut raw = Vec::new();
    loop {
        raw.clear();
        let read = reader
            .read_until(b'\n', &mut raw)
            .map_err(|e| format!("read request: {e}"))?;
        if read == 0 {
            return Ok(false);
        }
        let (response, shutdown) = match std::str::from_utf8(&raw) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => respond(cmd, store, line.trim_end_matches(['\r', '\n'])),
            Err(e) => (error_line(&format!("request is not UTF-8: {e}")), false),
        };
        *requests += 1;
        writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("write response: {e}"))?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Builds the single-line JSON response for one request line; the bool
/// is the shutdown signal.
fn respond(cmd: &Command, store: &CasStore, line: &str) -> (String, bool) {
    match handle_request(cmd, store, line) {
        Ok(Reply::Report { circuit, hit, json }) => (
            format!(
                "{{\"ok\":true,\"circuit\":{},\"cache_hit\":{hit},\"report\":{json}}}",
                quote(&circuit)
            ),
            false,
        ),
        Ok(Reply::Shutdown) => ("{\"ok\":true}".to_owned(), true),
        Err(e) => (error_line(&e), false),
    }
}

/// The response line of a request that failed.
fn error_line(error: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", quote(error))
}

/// JSON-escapes a string through the vendored serializer.
fn quote(s: &str) -> String {
    serde_json::to_string(&s).unwrap_or_else(|_| "\"<unrenderable>\"".to_owned())
}

enum Reply {
    Report {
        circuit: String,
        hit: bool,
        json: String,
    },
    Shutdown,
}

fn handle_request(cmd: &Command, store: &CasStore, line: &str) -> Result<Reply, String> {
    let content =
        serde_json::from_str_content(line).map_err(|e| format!("unparseable request: {e}"))?;
    let entries = content
        .as_map()
        .ok_or_else(|| "request is not a JSON object".to_owned())?;
    let field = |name: &str| -> Option<String> {
        entries.iter().find(|(k, _)| k == name).and_then(|(_, v)| {
            if let Content::Str(s) = v {
                Some(s.clone())
            } else {
                None
            }
        })
    };
    let op = field("op").unwrap_or_else(|| "analyze".to_owned());
    match op.as_str() {
        "shutdown" => Ok(Reply::Shutdown),
        "analyze" => {
            let path = field("path").ok_or_else(|| "`analyze` needs a `path`".to_owned())?;
            let nl = load(&path)?;
            let obs = mcp_obs::ObsCtx::new();
            let report = match field("eco") {
                Some(old_path) => {
                    let old = load(&old_path)?;
                    analyze_eco_with(&old, &nl, &cmd.cfg, &obs, store)
                        .map(|(report, _)| report)
                        .map_err(|e| e.to_string())?
                }
                None => {
                    analyze_cached_with(&nl, &cmd.cfg, &obs, store).map_err(|e| e.to_string())?
                }
            };
            let hit = obs.snapshot().counters.cache_hits > 0;
            let json = serde_json::to_string(&report.canonical())
                .map_err(|e| format!("serialize: {e}"))?;
            Ok(Reply::Report {
                circuit: nl.name().to_owned(),
                hit,
                json,
            })
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_args;
    use proptest::prelude::*;
    use std::io::Read as _;
    use std::net::Shutdown;
    use std::path::{Path, PathBuf};

    /// A register with a hold loop: the one circuit valid requests name.
    const TINY: &str = "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUFF(q)\n";

    /// One request line: a kind and the bytes that vary it.
    type LineSpec = (u8, Vec<u8>);

    /// The serve command, its store, and the scratch directory holding
    /// `tiny.bench`.
    fn fixture() -> (Command, CasStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("mcpath-serve-lines-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("tiny.bench"), TINY).expect("write bench");
        let cache = dir.join("cache");
        let args = [
            "serve",
            "unused.sock",
            "--cache-dir",
            cache.to_str().expect("utf8"),
        ];
        let cmd = parse_args(args.map(str::to_owned)).expect("parse");
        let store = CasStore::open(&cache).expect("open store");
        (cmd, store, dir)
    }

    fn render((kind, bytes): &LineSpec, dir: &Path) -> Vec<u8> {
        let pick = |options: &[String]| options[bytes.len() % options.len()].clone().into_bytes();
        let tiny = dir.join("tiny.bench").display().to_string();
        let missing = dir.join("missing.bench").display().to_string();
        match kind {
            // Arbitrary bytes, invalid UTF-8 included, on one line.
            0 => bytes.iter().copied().filter(|&b| b != b'\n').collect(),
            // An analyze request whose path ends in bytes that are not UTF-8.
            1 => {
                let mut line = br#"{"op":"analyze","path":""#.to_vec();
                line.extend(bytes.iter().filter(|&&b| b != b'\n' && b != b'"'));
                line.extend_from_slice(b"\xff\xfe\"}");
                line
            }
            // JSON that is not an object.
            2 => pick(&["[1,2]", "\"analyze\"", "42", "null", "true", "{"].map(String::from)),
            // Fields of the wrong type.
            3 => pick(
                &[
                    r#"{"op":7}"#,
                    r#"{"op":"analyze","path":42}"#,
                    r#"{"path":["tiny.bench"]}"#,
                    r#"{"op":null,"eco":false}"#,
                ]
                .map(String::from),
            ),
            // An unknown op (never a real one: the prefix keeps it apart).
            4 => {
                let op: String = bytes.iter().map(|b| char::from(b'a' + b % 26)).collect();
                format!(r#"{{"op":"x-{op}"}}"#).into_bytes()
            }
            // A missing or nonexistent `path`, or a nonexistent `eco`.
            5 => pick(&[
                r#"{"op":"analyze"}"#.to_owned(),
                format!(r#"{{"op":"analyze","path":{}}}"#, quote(&missing)),
                format!(
                    r#"{{"op":"analyze","path":{},"eco":{}}}"#,
                    quote(&tiny),
                    quote(&missing)
                ),
            ]),
            // A valid analyze, plain or as an ECO against itself.
            6 => pick(&[
                format!(r#"{{"op":"analyze","path":{}}}"#, quote(&tiny)),
                format!(r#"{{"path":{},"eco":{}}}"#, quote(&tiny), quote(&tiny)),
            ]),
            // Blank lines, which get no reply.
            _ => pick(&["", "   ", "\t", "\r"].map(String::from)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every non-blank request line gets exactly one JSON reply line
        /// with a boolean `ok`, and only `{"op":"shutdown"}` ends the
        /// connection; without it the loop runs until the client hangs up.
        #[test]
        fn every_request_line_gets_one_reply_and_only_shutdown_ends_the_loop(
            specs in proptest::collection::vec((0u8..8, proptest::collection::vec(any::<u8>(), 0..48)), 0..8),
            shutdown in any::<bool>(),
        ) {
            let (cmd, store, dir) = fixture();
            let lines: Vec<Vec<u8>> = specs.iter().map(|s| render(s, &dir)).collect();
            let mut input = Vec::new();
            for line in &lines {
                input.extend_from_slice(line);
                input.push(b'\n');
            }
            if shutdown {
                input.extend_from_slice(b"{\"op\":\"shutdown\"}\n");
            }
            let blank = |l: &[u8]| std::str::from_utf8(l).is_ok_and(|s| s.trim().is_empty());
            let expected = lines.iter().filter(|l| !blank(l)).count() + usize::from(shutdown);

            let (mut client, server) = UnixStream::pair().expect("socket pair");
            let mut requests = 0u64;
            let (ended, replies) = std::thread::scope(|s| {
                let handler = s.spawn(|| handle_connection(&cmd, &store, server, &mut requests));
                // A server that hangs up early makes this write fail; the
                // reply count below reports that.
                let _ = client.write_all(&input);
                let _ = client.shutdown(Shutdown::Write);
                let mut replies = String::new();
                client.read_to_string(&mut replies).expect("read replies");
                (handler.join().expect("handle_connection panicked"), replies)
            });
            prop_assert_eq!(&ended, &Ok(shutdown), "replies so far: {}", replies);
            let replies: Vec<&str> = replies.lines().collect();
            prop_assert_eq!(replies.len(), expected, "replies: {:?}", replies);
            prop_assert_eq!(requests, expected as u64);
            for reply in replies {
                let content = serde_json::from_str_content(reply);
                let ok = content.as_ref().ok().and_then(Content::as_map).and_then(|m| {
                    m.iter().find(|(k, _)| k == "ok").map(|(_, v)| v.clone())
                });
                prop_assert!(matches!(ok, Some(Content::Bool(_))), "reply without a boolean `ok`: {}", reply);
            }
        }
    }
}
