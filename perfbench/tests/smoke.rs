//! The benchmark itself at tiny sizes: every metric `BENCHMARK.json`
//! names is emitted with its unit, on every workload and in both the
//! end-to-end and the traced run, and a corrupted app result fails the
//! run: a non-zero exit, `correct: false` and an `ok_frac` of 0.

use perfbench::apps::APPS;
use perfbench::stats::Report;
use perfbench::{run, Config, Sizes, Workload, WORKLOADS};

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.4,
        trace,
        sizes: Sizes::tiny(),
        corrupt: None,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn emitted(rep: &Report) -> Vec<(String, String)> {
    rep.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let e2e_names: Vec<&str> = e2e.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(e2e_names, perfbench::END_TO_END);
    let code: Vec<(String, String)> = perfbench::layers::per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(layers, code);
    for w in WORKLOADS {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let rep = run(&config(w, trace)).expect("run");
            assert!(
                rep.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                rep.mismatches
            );
            assert_eq!(&emitted(&rep), want, "{} trace={trace}", w.name());
            let line = rep.to_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

/// Run the built benchmark at tiny sizes; returns whether it exited 0
/// and its last line of output.
fn run_binary(extra: &[&str]) -> (bool, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke-bin");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "rmat", "--seed", "3", "--seconds", "0.4"])
        .args(["--trace", "0", "--sizes", "tiny"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

fn ok_frac(line: &str) -> f64 {
    let key = "\"ok_frac\": {\"value\": ";
    let at = line.find(key).expect("ok_frac in the result line") + key.len();
    let end = at + line[at..].find(',').expect("value ends");
    line[at..end].parse().expect("a number")
}

#[test]
fn a_corrupted_result_fails_the_run() {
    let (ok, line) = run_binary(&[]);
    assert!(ok, "an uncorrupted run failed: {line}");
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    assert_eq!(ok_frac(&line), 1.0);
    for app in APPS {
        let (ok, line) = run_binary(&["--corrupt", app.name()]);
        assert!(!ok, "corrupting {} still exited 0", app.name());
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        // the corrupted app fails every call, whatever its share of
        // the run's operations
        assert_eq!(ok_frac(&line), 0.0, "{}: {line}", app.name());
    }
}
