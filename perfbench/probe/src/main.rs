//! `fxprobe` — the benchmark's probe into the workspace layers.
//!
//! ```text
//! fxprobe replay  --spec S --journal J [--spec S --journal J ...]
//!                 --spans OUT.jsonl --summary OUT.json
//! fxprobe loadgen --addr HOST:PORT --schedule FILE --conns N --out OUT.json
//! fxprobe store   --dir DIR --journal J --out OUT.json
//! ```
//!
//! `perfbench/run.py` drives all three; see `perfbench/README.md`.

mod loadgen;
mod replay;
mod tracer;

use std::process::ExitCode;
use std::time::Instant;

/// `--name value` pairs, in order (names may repeat).
fn parse(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn all(args: &[(String, String)], name: &str) -> Vec<String> {
    args.iter()
        .filter(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
        .collect()
}

fn one(args: &[(String, String)], name: &str) -> Result<String, String> {
    all(args, name)
        .pop()
        .ok_or_else(|| format!("missing --{name}"))
}

/// Times `Store::put` then `Store::get` for every journaled record,
/// on a fresh store at `dir`, with the payloads a campaign publishes.
fn store_bench(dir: &str, journal: &str, out: &str) -> Result<(), String> {
    use fx_json::Json;
    let records = fx_campaign::Journal::new(journal.into()).load()?;
    let store =
        fx_store::Store::open(std::path::Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    let entries: Vec<(u64, String)> = records
        .iter()
        .map(|r| (fx_store::fnv1a(r.key.as_bytes()), fx_json::to_string(r)))
        .collect();
    let mut put_us = Vec::with_capacity(entries.len());
    for (key, payload) in &entries {
        let t = Instant::now();
        store
            .put(*key, payload)
            .map_err(|e| format!("store put: {e}"))?;
        put_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut get_us = Vec::with_capacity(entries.len());
    for (key, payload) in &entries {
        let t = Instant::now();
        let got = store.get(*key);
        get_us.push(t.elapsed().as_secs_f64() * 1e6);
        if got.as_deref() != Some(payload.as_str()) {
            return Err(format!("store get({key:016x}) did not return what was put"));
        }
    }
    let arr = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    let doc = Json::Obj(vec![
        ("put_us".to_string(), arr(put_us)),
        ("get_us".to_string(), arr(get_us)),
    ]);
    std::fs::write(out, fx_json::to_string(&doc)).map_err(|e| format!("{out}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match (
        argv.first().map(String::as_str),
        parse(argv.get(1..).unwrap_or(&[])),
    ) {
        (_, Err(e)) => Err(e),
        (Some("replay"), Ok(a)) => (|| {
            replay::run(
                &all(&a, "spec"),
                &all(&a, "journal"),
                &one(&a, "spans")?,
                &one(&a, "summary")?,
            )
        })(),
        (Some("loadgen"), Ok(a)) => (|| {
            let conns = one(&a, "conns")?
                .parse()
                .map_err(|_| "--conns must be an integer")?;
            loadgen::run(
                &one(&a, "addr")?,
                &one(&a, "schedule")?,
                conns,
                &one(&a, "out")?,
            )
        })(),
        (Some("store"), Ok(a)) => {
            (|| store_bench(&one(&a, "dir")?, &one(&a, "journal")?, &one(&a, "out")?))()
        }
        _ => Err("usage: fxprobe replay|loadgen|store [--flag value ...]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fxprobe: {e}");
            ExitCode::FAILURE
        }
    }
}
