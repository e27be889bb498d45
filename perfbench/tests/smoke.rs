//! Smoke test of the benchmark itself: every workload at `--smoke` sizes,
//! untraced and traced, must pass its checks and print every metric that
//! `BENCHMARK.json` names, with that metric's unit.

use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

/// A minimal JSON parser: enough for `BENCHMARK.json` and the result line.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.at, p.s.len(), "trailing bytes after JSON value");
        value
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.ws();
        assert_eq!(self.s[self.at], byte, "at byte {}", self.at);
        self.at += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.at;
        while self.s[self.at] != b'"' {
            assert_ne!(self.s[self.at], b'\\', "escapes are not expected here");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.s[start..self.at - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.at] {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.at += 1;
                    if self.s[self.at - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.at += 1;
                    if self.s[self.at - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.at += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.at += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.at += 4;
                Json::Null
            }
            _ => {
                let start = self.at;
                while self.at < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("utf-8");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// Runs one smoke-sized workload; returns the result line.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.4"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

fn check(result: &Json, metrics: &[Json], what: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{what}");
    match result.get("attempted") {
        Some(Json::Num(n)) => assert!(*n >= 1.0, "{what}: attempted {n}"),
        other => panic!("{what}: attempted {other:?}"),
    }
    let printed = result.get("metrics").expect("metrics");
    let Json::Obj(fields) = printed else {
        panic!("{what}: metrics is not an object");
    };
    assert_eq!(fields.len(), metrics.len(), "{what}: metric count");
    for m in metrics {
        let name = m.get("name").expect("name").str();
        let entry = printed
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            entry.get("unit").map(Json::str),
            Some(m.get("unit").expect("unit").str()),
            "{what}: unit of {name}"
        );
        match entry.get("value") {
            Some(Json::Num(v)) => assert!(v.is_finite(), "{what}: {name} = {v}"),
            other => panic!("{what}: {name} value {other:?}"),
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let bench = benchmark();
    let end_to_end = bench.get("end_to_end").expect("end_to_end").arr();
    let per_layer = bench.get("per_layer").expect("per_layer").arr();
    for w in bench.get("workloads").expect("workloads").arr() {
        let name = w.get("name").expect("name").str();
        check(&run(name, 0), end_to_end, &format!("{name} untraced"));
        check(&run(name, 1), per_layer, &format!("{name} traced"));
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nonesuch", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
