//! Smoke run of every workload in `BENCHMARK.json`, with the load
//! constants of its command and a short `--seconds`: every output must
//! check, and the last line must carry exactly the declared metrics,
//! each with its declared unit. Run with `cargo test --release`; a
//! debug build generates the sudoku corpora slowly.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A JSON value, parsed by the minimal reader below (the benchmark has
/// no JSON dependency).
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
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object, looking for {key:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
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

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut r = Reader {
            s: text.as_bytes(),
            i: 0,
        };
        let v = r.value();
        r.ws();
        assert_eq!(r.i, r.s.len(), "trailing text after JSON value");
        v
    }
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }
    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        let v = self.value();
                        assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() != b']' {
                    loop {
                        a.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(a)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }
}

#[test]
fn reader_parses_what_the_benchmark_prints() {
    let v = Reader::parse(r#"{"a": [1, 2.5e-3, -4], "b": {"c": "x\"y"}, "d": true, "e": null}"#);
    assert_eq!(v.get("a").arr()[1].num(), 2.5e-3);
    assert_eq!(v.get("b").get("c").str(), "x\"y");
    assert_eq!(v.get("d"), &Json::Bool(true));
}

fn declared(spec: &Json, key: &str) -> BTreeMap<String, String> {
    spec.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_checks_its_outputs_and_prints_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = Reader::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap());
    let command: Vec<&str> = spec.get("command").arr().iter().map(Json::str).collect();
    let load = &command[command.iter().position(|a| *a == "--").unwrap() + 1..];
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&out_dir).unwrap();
    for w in spec.get("workloads").arr() {
        let workload = w.get("name").str();
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_snetbench"))
                .args(load)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "11",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                ])
                .current_dir(&out_dir)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Reader::parse(stdout.lines().last().unwrap());
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            let metrics = result.get("metrics").obj();
            let want = if trace == "0" {
                &end_to_end
            } else {
                &per_layer
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            assert_eq!(
                &got, want,
                "{workload} --trace {trace}: metric names or units"
            );
            for (name, v) in metrics {
                let value = v.get("value").num();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
            if trace == "1" {
                let par = metrics["sacarray.par_calls"].get("value").num();
                if workload == "stencil-tiles" {
                    assert!(par > 0.0, "stencil with-loops never ran in parallel");
                } else {
                    assert_eq!(par, 0.0, "{workload} ran a parallel with-loop");
                }
                let stem = out_dir.join(format!(".snetbench-out/{workload}-seed11"));
                let table = std::fs::read_to_string(stem.with_extension("layers.tsv")).unwrap();
                assert!(table.lines().count() > 2, "empty per-layer table");
                assert!(stem.with_extension("spans.jsonl").exists());
            }
        }
    }
}
