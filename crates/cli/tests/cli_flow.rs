//! End-to-end CLI flow: gen → label → train → predict → eval, driven
//! through the command functions against a temporary directory.

use hotspot_bench::ExperimentArgs;
use hotspot_cli::commands;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotspot-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn args(pairs: &[(&str, &str)]) -> ExperimentArgs {
    let tokens: Vec<String> = pairs
        .iter()
        .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
        .collect();
    ExperimentArgs::from_iter(tokens)
}

#[test]
fn full_flow_gen_label_train_predict_eval() {
    let dir = tmp_dir("flow");
    let dir_s = dir.to_str().unwrap();

    // gen: tiny benchmark.
    let out = commands::dispatch(
        "gen",
        &args(&[("dir", dir_s), ("suite", "iccad"), ("scale", "0.001")]),
    )
    .expect("gen succeeds");
    assert!(out.contains("train clips"), "{out}");
    let train_clips = dir.join("train.clips");
    let train_labels = dir.join("train.labels");
    let test_clips = dir.join("test.clips");
    let test_labels = dir.join("test.labels");
    for f in [&train_clips, &train_labels, &test_clips, &test_labels] {
        assert!(f.exists(), "{f:?} missing");
    }

    // label: the oracle must agree with the generated labels exactly.
    let labelled = commands::dispatch("label", &args(&[("clips", test_clips.to_str().unwrap())]))
        .expect("label succeeds");
    let generated = std::fs::read_to_string(&test_labels).unwrap();
    assert_eq!(
        labelled.trim(),
        generated.trim(),
        "oracle disagrees with gen"
    );

    // train: tiny budget — we only verify the plumbing, not model quality.
    let model = dir.join("model.hsnn");
    let out = commands::dispatch(
        "train",
        &args(&[
            ("clips", train_clips.to_str().unwrap()),
            ("labels", train_labels.to_str().unwrap()),
            ("model", model.to_str().unwrap()),
            ("k", "4"),
            ("steps", "40"),
            ("rounds", "1"),
            ("batch", "8"),
        ]),
    )
    .expect("train succeeds");
    assert!(out.contains("model written"), "{out}");
    assert!(model.exists());

    // predict: one probability line per clip, all probabilities in [0, 1].
    let pred = commands::dispatch(
        "predict",
        &args(&[
            ("clips", test_clips.to_str().unwrap()),
            ("model", model.to_str().unwrap()),
        ]),
    )
    .expect("predict succeeds");
    let test_count = generated.trim().lines().count();
    assert_eq!(pred.trim().lines().count(), test_count);
    for line in pred.trim().lines() {
        let p: f32 = line.split('\t').next().unwrap().parse().unwrap();
        assert!((0.0..=1.0).contains(&p));
        assert!(line.ends_with("hotspot") || line.ends_with("clean"));
    }

    // eval: metrics line with all fields.
    let eval = commands::dispatch(
        "eval",
        &args(&[
            ("clips", test_clips.to_str().unwrap()),
            ("labels", test_labels.to_str().unwrap()),
            ("model", model.to_str().unwrap()),
        ]),
    )
    .expect("eval succeeds");
    assert!(eval.contains("accuracy"), "{eval}");
    assert!(eval.contains("odst"), "{eval}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_are_reported() {
    assert!(matches!(
        commands::dispatch("frobnicate", &args(&[])),
        Err(hotspot_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        commands::dispatch("train", &args(&[])),
        Err(hotspot_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        commands::dispatch("gen", &args(&[("dir", "/tmp/x"), ("suite", "bogus")])),
        Err(hotspot_cli::CliError::Usage(_))
    ));
}

/// Runs a whole command line (whitespace-separated tokens after the
/// command name) and returns its usage-error message.
fn usage_message(command: &str, line: &str) -> String {
    match commands::run(command, line.split_whitespace()) {
        Err(hotspot_cli::CliError::Usage(msg)) => msg,
        other => panic!("expected a usage error, got {other:?}"),
    }
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    // None of these reach a file: flags are read first.
    let msg = usage_message("scan", "stray");
    assert!(msg.contains("'stray'"), "{msg}");
    let msg = usage_message("train", "--clips c.clips --k");
    assert!(msg.contains("--k"), "{msg}");
    let msg = usage_message(
        "train",
        "--clips c.clips --labels c.labels --model m.hsnn --k abc",
    );
    assert!(msg.contains("--k") && msg.contains("'abc'"), "{msg}");
    let msg = usage_message("predict", "--clips c.clips --model m.hsnn --threshold x");
    assert!(msg.contains("--threshold") && msg.contains("'x'"), "{msg}");
    let msg = usage_message(
        "train",
        "--clips c.clips --labels c.labels --model m.hsnn --cascade p --cascade-grid abc",
    );
    assert!(
        msg.contains("--cascade-grid") && msg.contains("'abc'"),
        "{msg}"
    );
    // A scale outside (0, 1] used to panic in the suite builder, or (inf)
    // never return.
    for (scale, shown) in [
        ("0", "'0'"),
        ("-1", "'-1'"),
        ("nan", "'NaN'"),
        ("inf", "'inf'"),
    ] {
        let msg = usage_message("gen", &format!("--dir d --suite industry3 --scale {scale}"));
        assert!(msg.contains("--scale") && msg.contains(shown), "{msg}");
    }
}

/// Runs the `hotspot` binary and returns its exit code and stderr.
fn run_binary(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hotspot"))
        .args(args)
        .output()
        .expect("run the hotspot binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn only_usage_errors_print_the_usage_text() {
    let (code, stderr) = run_binary(&["frobnicate"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error: usage error: unknown command 'frobnicate'\n"));
    assert!(stderr.contains(commands::USAGE), "{stderr}");

    // A clip-file error prints its one line and exits as before.
    let dir = tmp_dir("usage");
    let clips = dir.join("bad.clips");
    std::fs::write(&clips, "clip 0 0 1200 1200\nend of record 42\n").unwrap();
    let (code, stderr) = run_binary(&["label", "--clips", clips.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: clip file error: parse error at line 2: 'end' takes no arguments, got 3\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn label_count_mismatch_rejected() {
    let dir = tmp_dir("mismatch");
    let clips = dir.join("c.clips");
    std::fs::write(&clips, "clip 0 0 1200 1200\nrect 100 100 300 900\nend\n").unwrap();
    let labels = dir.join("c.labels");
    std::fs::write(&labels, "1\n0\n").unwrap(); // two labels, one clip
    let result = commands::dispatch(
        "train",
        &args(&[
            ("clips", clips.to_str().unwrap()),
            ("labels", labels.to_str().unwrap()),
            ("model", dir.join("m.hsnn").to_str().unwrap()),
        ]),
    );
    assert!(matches!(result, Err(hotspot_cli::CliError::Data(_))));
    let _ = std::fs::remove_dir_all(&dir);
}
