//! Tests of the benchmark itself: its metric catalogue agrees with
//! `BENCHMARK.json`, every workload reports every metric with its unit,
//! and the result line has exactly the contract's shape.
//!
//! The workloads run at `Size::smoke()` with a zero measuring window, so
//! the whole file takes seconds.

use std::collections::BTreeMap;

use wmatch_perfbench::inputs::{Size, WORKLOADS};
use wmatch_perfbench::workloads::run;
use wmatch_perfbench::{render_result, MetricSpec, END_TO_END, PER_LAYER};

/// A minimal JSON value, enough to read `BENCHMARK.json` and the result
/// line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn listed(bench: &Json, key: &str) -> Vec<(String, String, String)> {
    bench
        .get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

fn catalogue(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(listed(&bench, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), catalogue(PER_LAYER));
    let names: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS);
    for m in bench.get("end_to_end").arr() {
        let Json::Num(bound) = m.get("bound") else {
            panic!("bound")
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "{m:?}");
    }
}

/// Runs one workload at smoke size and checks its result line: the
/// contract's four keys, the gate passed, and exactly the catalogue's
/// metrics, each with its unit.
fn check_workload(workload: &str, trace: bool) {
    let r = run(workload, 5, 0.0, trace, &Size::smoke()).expect("known workload");
    assert!(r.gate.passed(), "{workload}: {:?}", r.gate.failures);
    let specs = if trace { PER_LAYER } else { END_TO_END };
    let line = render_result(&r.gate, &r.metrics, specs).expect("every metric measured");
    let parsed = Parser::parse(&line);
    let keys: Vec<&String> = parsed.obj().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(parsed.get("correct"), &Json::Bool(true));
    let Json::Num(attempted) = parsed.get("attempted") else {
        panic!("attempted")
    };
    assert!(*attempted >= 1.0 && attempted.fract() == 0.0);
    let metrics = parsed.get("metrics").obj();
    assert_eq!(metrics.len(), specs.len(), "{workload}");
    for (name, unit, _) in specs {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").str(), *unit, "{workload}: {name}");
        let Json::Num(v) = m.get("value") else {
            panic!("{workload}: {name} value")
        };
        if !trace {
            assert!(*v > 0.0, "{workload}: end-to-end metric {name} is {v}");
        }
    }
}

#[test]
fn paper_static_reports_every_metric() {
    check_workload("paper-static", false);
}

#[test]
fn serve_marketplace_reports_every_metric() {
    check_workload("serve-marketplace", false);
}

#[test]
fn churn_dense_reports_every_metric() {
    check_workload("churn-dense", false);
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for w in WORKLOADS {
        check_workload(w, true);
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("nope", 1, 0.0, false, &Size::smoke()).is_err());
}
