//! A capture whose explicit parents form one long chain: every span names
//! the previous one as its parent, and all of them cover the same 1 ms.
//! Folded stacks and the span tree walk such a chain on explicit stacks,
//! so its depth costs heap, not call-stack frames: `xsp export --from`
//! folds it to a single line, a daemon session writes the same bytes, and
//! `SpanTree::depth` measures it.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;
use xsp_core::export::ExportFormat;
use xsp_daemon::{OnFull, Session, DEFAULT_QUOTA};
use xsp_trace::export::read_span_json_lines;
use xsp_trace::{CorrelationEngine, Span, SpanTree, Trace};

/// Length of the chain: deep enough that a walk recursing once per level
/// overflows a default thread stack.
const CHAIN: usize = 120_000;

/// The chain as span JSON lines: span `i` (ids from 1) parents span `i+1`.
fn chain_jsonl() -> String {
    let mut out = String::new();
    for id in 1..=CHAIN {
        let parent = match id {
            1 => "null".to_owned(),
            _ => (id - 1).to_string(),
        };
        writeln!(
            out,
            r#"{{"id":{id},"trace_id":1,"name":"s","level":"Model","start_ns":0,"end_ns":1000000,"parent":{parent},"tags":[],"logs":[]}}"#
        )
        .unwrap();
    }
    out
}

fn chain_spans() -> Vec<Span> {
    read_span_json_lines(chain_jsonl().as_bytes())
        .expect("the chain parses")
        .into_spans()
}

/// Stdout of `xsp export --from <chain> --format folded`, run once.
fn cli_folded() -> &'static [u8] {
    static OUT: OnceLock<Vec<u8>> = OnceLock::new();
    OUT.get_or_init(|| {
        let path: PathBuf =
            std::env::temp_dir().join(format!("xsp-chain-{}.jsonl", std::process::id()));
        std::fs::write(&path, chain_jsonl()).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_xsp"))
            .arg("export")
            .arg("--from")
            .arg(&path)
            .args(["--format", "folded"])
            .output()
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            out.status.success(),
            "exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    })
}

#[test]
fn cli_folds_the_chain_to_one_line() {
    let expected = format!("{} 1000\n", vec!["s"; CHAIN].join(";"));
    let got = cli_folded();
    assert_eq!(got.iter().filter(|&&b| b == b'\n').count(), 1);
    assert!(got == expected.as_bytes(), "{} bytes", got.len());
}

#[test]
fn a_session_folds_the_chain_to_the_from_bytes() {
    let mut session = Session::new(1, DEFAULT_QUOTA, OnFull::Shed, None);
    session
        .append(chain_spans())
        .expect("the chain fits the quota");
    assert!(*session.export_bytes(ExportFormat::Folded) == cli_folded());
}

#[test]
fn span_tree_depth_measures_the_chain() {
    let correlated = CorrelationEngine::new().correlate(Trace::from_spans(chain_spans()));
    let tree = SpanTree::build(&correlated);
    let roots = tree.roots();
    assert_eq!(roots.len(), 1);
    assert_eq!(tree.depth(roots[0]), CHAIN);
    assert_eq!(tree.descendants(roots[0]).len(), CHAIN - 1);
}
