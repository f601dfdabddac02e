//! Count flags that must be at least 1, and a rate that is not a positive
//! finite number, are refused with an `error:` line and exit status 1,
//! never an assertion panic or an empty report, and `--model` accepts the
//! zoo ids `xsp list-models` prints.

use std::process::{Command, Output};

/// The scratch directory `{tmp}` stands for in an argument line.
const TMP: &str = env!("CARGO_TARGET_TMPDIR");

/// Runs the CLI on a space-separated argument line.
fn xsp(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xsp"))
        .args(args.split(' ').map(|a| a.replace("{tmp}", TMP)))
        .output()
        .unwrap()
}

#[test]
fn zero_counts_are_refused_with_an_error() {
    for (args, flag) in [
        ("profile --model 5 --runs 0", "--runs"),
        ("analyze --ax 4 --model gpt2 --max-batch 0", "--max-batch"),
        (
            "analyze --ax 4 --model gpt2 --cache-bucket 0",
            "--cache-bucket",
        ),
        ("analyze --ax 4 --model gpt2 --requests 0", "--requests"),
        ("profile --model 5 --batch 0", "--batch"),
        (
            "export --model 5 --batch 0 -o {tmp}/batch0.jsonl",
            "--batch",
        ),
        (
            "export --model 5 --batch 0 --sink {tmp}/batch0.jsonl",
            "--batch",
        ),
        ("analyze --ax 3 --model 5 --batch 0", "--batch"),
        (
            "cache warm --model 5 --batch 0 --cache-dir {tmp}/batch0",
            "--batch",
        ),
    ] {
        let out = xsp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        let expected = format!("error: bad {flag} '0' (must be at least 1)\n");
        assert_eq!(stderr, expected, "{args}");
    }
    let out = xsp("analyze --ax 4 --model gpt2 --rate inf");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: bad --rate 'inf' (must be positive and finite)\n"
    );
    // Refused before anything is written.
    let tmp = std::path::Path::new(TMP);
    assert!(!tmp.join("batch0.jsonl").exists());
    assert!(!tmp.join("batch0").exists());
}

#[test]
fn model_accepts_the_ids_list_models_prints() {
    let listed = String::from_utf8(xsp("list-models").stdout).unwrap();
    assert!(listed.contains("| 5  | ResNet_v2_101 "), "{listed}");
    let out = xsp("profile --model 5 --runs 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("profiling ResNet_v2_101 @ batch 1"),
        "{stdout}"
    );
}
