//! `fxprobe loadgen`: an open-loop HTTP/1.1 load generator.
//!
//! The schedule file holds one request per line, `<due_us> <path>`,
//! sorted by due time. `conns` threads each own one keep-alive
//! connection and take the next request in due order as soon as they
//! are free; a request is sent at its due time or, when every
//! connection is busy, as soon as one frees up. Latency is measured
//! from the due time, so a stall is charged to every request it
//! delays. The first `200` body of every path is kept; every later
//! answer for the path is compared with it byte for byte.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Outcome {
    /// HTTP status; 0 when no answer arrived.
    status: u16,
    /// The `X-Cache` header (`hit`, `miss`, or empty).
    cache: String,
    sent_us: u64,
    done_us: u64,
    /// A `200` whose body equals the first `200` body of its path.
    same_body: bool,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: &str) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(Conn {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
    })
}

/// Sends one GET and reads the whole response.
fn request(conn: &mut Conn, path: &str) -> std::io::Result<(u16, String, Vec<u8>)> {
    write!(conn.writer, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    conn.writer.flush()?;
    let mut line = String::new();
    if conn.reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "closed",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let (mut len, mut cache) = (0usize, String::new());
    loop {
        line.clear();
        if conn.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("x-cache") {
                cache = value.trim().to_string();
            }
        }
    }
    let mut body = vec![0u8; len];
    conn.reader.read_exact(&mut body)?;
    Ok((status, cache, body))
}

/// `fxprobe loadgen --addr A --schedule FILE --conns N --out FILE`
pub fn run(addr: &str, schedule: &str, conns: usize, out: &str) -> Result<(), String> {
    use fx_json::Json;
    let text = std::fs::read_to_string(schedule).map_err(|e| format!("{schedule}: {e}"))?;
    let plan: Vec<(u64, String)> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (due, path) = l
                .split_once(' ')
                .ok_or("schedule line needs `<due_us> <path>`")?;
            Ok((due.parse().map_err(|_| "bad due time")?, path.to_string()))
        })
        .collect::<Result<_, &str>>()?;
    let mut pool = Vec::new();
    for _ in 0..conns.max(1) {
        pool.push(connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Outcome>>> = Mutex::new((0..plan.len()).map(|_| None).collect());
    let bodies: Mutex<BTreeMap<String, Vec<u8>>> = Mutex::new(BTreeMap::new());
    let t0 = Instant::now();
    let us = |t: Instant| t.duration_since(t0).as_micros() as u64;
    std::thread::scope(|scope| {
        for mut conn in pool {
            let (plan, next, results, bodies) = (&plan, &next, &results, &bodies);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((due_us, path)) = plan.get(i) else {
                    return;
                };
                let due = t0 + Duration::from_micros(*due_us);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let reply = request(&mut conn, path);
                let done = Instant::now();
                let outcome = match reply {
                    Ok((status, cache, body)) => {
                        let same_body = status == 200
                            && *bodies
                                .lock()
                                .expect("body map lock")
                                .entry(path.clone())
                                .or_insert_with(|| body.clone())
                                == body;
                        Outcome {
                            status,
                            cache,
                            sent_us: us(sent),
                            done_us: us(done),
                            same_body,
                        }
                    }
                    Err(_) => {
                        // no answer: count it and start a fresh connection
                        if let Ok(c) = connect(addr) {
                            conn = c;
                        }
                        Outcome {
                            status: 0,
                            cache: String::new(),
                            sent_us: us(sent),
                            done_us: us(done),
                            same_body: false,
                        }
                    }
                };
                results.lock().expect("result lock")[i] = Some(outcome);
            });
        }
    });
    let results = results.into_inner().expect("result lock");
    let rows = plan
        .iter()
        .zip(results)
        .map(|((due, path), o)| {
            let o = o.expect("every scheduled request was taken");
            Json::Arr(vec![
                Json::Str(path.clone()),
                Json::UInt(o.status as u64),
                Json::Str(o.cache),
                Json::UInt(*due),
                Json::UInt(o.sent_us),
                Json::UInt(o.done_us),
                Json::Bool(o.same_body),
            ])
        })
        .collect();
    let bodies = bodies
        .into_inner()
        .expect("body map lock")
        .into_iter()
        .map(|(path, body)| (path, Json::Str(String::from_utf8_lossy(&body).into_owned())))
        .collect();
    let doc = Json::Obj(vec![
        ("requests".to_string(), Json::Arr(rows)),
        ("bodies".to_string(), Json::Obj(bodies)),
    ]);
    std::fs::write(out, fx_json::to_string(&doc)).map_err(|e| format!("{out}: {e}"))
}
