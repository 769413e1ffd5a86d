//! `bless-baseline`'s loop and its agreement with CI: every smoke runs and
//! passes its self-gate before any baseline is written, and each entry of
//! [`BLESS`] is the command a CI job runs and gates against that baseline.

use std::path::{Path, PathBuf};

use xtask::gate::{bless, Smoke, BLESS};

const STAGES: &str = r#"[{"name":"toy","samples":[{"processors":1,"time_ms":1.0,
    "stages":[{"name":"degree","total_ms":1.0,"mem_peak_bytes":64}]}]}]"#;

const TWO: &[Smoke] = &[
    Smoke {
        baseline: "out/first.json",
        cargo_args: "first",
    },
    Smoke {
        baseline: "out/second.json",
        cargo_args: "second",
    },
];

/// A fresh, empty directory under the system temp dir.
fn scratch_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-bless-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn nothing_is_written_when_a_later_smoke_fails() {
    let root = scratch_root("later-fails");
    let mut ran = Vec::new();
    let err = bless(&root, TWO, |smoke| {
        ran.push(smoke.cargo_args);
        match smoke.cargo_args {
            "first" => Ok(STAGES.to_string()),
            _ => Err("second smoke crashed".to_string()),
        }
    })
    .unwrap_err();
    assert!(err.contains("crashed"), "{err}");
    assert_eq!(ran, ["first", "second"]);
    assert!(!root.join("out").exists(), "a baseline was written");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn nothing_is_written_when_a_fresh_output_fails_its_self_gate() {
    let root = scratch_root("self-gate");
    // An empty breakdown (a smoke that lost its recorder) compares nothing
    // against itself.
    let err = bless(&root, TWO, |smoke| match smoke.cargo_args {
        "first" => Ok(STAGES.to_string()),
        _ => Ok("[]".to_string()),
    })
    .unwrap_err();
    assert!(err.contains("out/second.json"), "{err}");
    assert!(err.contains("compared nothing"), "{err}");
    assert!(!root.join("out").exists(), "a baseline was written");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_baseline_is_written_once_all_smokes_pass() {
    let root = scratch_root("all-pass");
    let written = bless(&root, TWO, |_| Ok(STAGES.to_string())).unwrap();
    assert_eq!(written.len(), 2);
    for smoke in TWO {
        let text = std::fs::read_to_string(root.join(smoke.baseline)).unwrap();
        assert_eq!(text, STAGES);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The `run:` blocks of the CI workflow, with `\` continuations joined and
/// whitespace collapsed: one token list per command line.
fn ci_commands() -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows/ci.yml");
    let yaml = std::fs::read_to_string(&path).expect("read the CI workflow");
    let lines: Vec<&str> = yaml.lines().collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut scripts = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        i += 1;
        let Some(rest) = line.trim_start().strip_prefix("run:") else {
            continue;
        };
        if rest.trim() != "|" {
            scripts.push(rest.trim().to_string());
            continue;
        }
        let mut script = String::new();
        while i < lines.len() && (lines[i].trim().is_empty() || indent(lines[i]) > indent(line)) {
            script.push_str(lines[i]);
            script.push('\n');
            i += 1;
        }
        scripts.push(script);
    }
    scripts
        .iter()
        .flat_map(|s| {
            s.replace("\\\n", " ")
                .lines()
                .map(|cmd| cmd.split_whitespace().map(str::to_owned).collect())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn bless_smokes_and_baselines_match_the_ci_workflow() {
    let commands = ci_commands();
    for smoke in BLESS {
        // `cargo` plus the smoke's arguments, in order; the trace file the
        // bless run writes is its own.
        let want: Vec<&str> = std::iter::once("cargo")
            .chain(smoke.cargo_args.split_whitespace())
            .collect();
        let runs_smoke = |cmd: &[String]| {
            cmd.windows(want.len()).any(|w| {
                w.iter()
                    .zip(&want)
                    .enumerate()
                    .all(|(j, (got, tok))| got == tok || (j > 0 && want[j - 1] == "--trace"))
            })
        };
        assert!(
            commands.iter().any(|c| runs_smoke(c)),
            "no CI step runs the smoke for {}: cargo {}",
            smoke.baseline,
            smoke.cargo_args
        );
        let gated = commands.iter().any(|c| {
            c.starts_with(&["cargo".into(), "xtask".into(), "gate".into()])
                && c.windows(2)
                    .any(|w| w[0] == "--baseline" && w[1] == smoke.baseline)
        });
        assert!(gated, "no CI step gates against {}", smoke.baseline);
    }
}
