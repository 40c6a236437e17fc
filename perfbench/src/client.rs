//! Blocking client helpers and the set-up probe shared by the ingest
//! workloads.

use crate::plan::{push_eos, push_hello, HELLO_ACK_LEN};
use crate::serve::Serve;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

/// Opens a loopback connection with Nagle off.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Reads exactly `n` ack bytes.
pub fn read_ack(s: &mut TcpStream, n: usize) -> Result<Vec<u8>, String> {
    let mut buf = vec![0u8; n];
    s.read_exact(&mut buf)
        .map_err(|e| format!("reading ack: {e}"))?;
    Ok(buf)
}

/// Sends a sequenced hello and waits for its ack; fails unless the
/// collector accepted the session at cursor 0.
pub fn hello(s: &mut TcpStream, id: &str, route: Option<&str>) -> Result<(), String> {
    let mut buf = Vec::new();
    push_hello(&mut buf, id, route);
    s.write_all(&buf).map_err(|e| format!("hello: {e}"))?;
    let ack = read_ack(s, HELLO_ACK_LEN)?;
    if ack != [b'+', 0, 0, 0, 0, 0, 0, 0, 0] {
        return Err(format!("session {id}: hello refused ({ack:?})"));
    }
    Ok(())
}

/// Sends end-of-stream and waits for the closing `+`.
pub fn close(s: &mut TcpStream, id: &str) -> Result<(), String> {
    let mut buf = Vec::new();
    push_eos(&mut buf);
    s.write_all(&buf).map_err(|e| format!("eos: {e}"))?;
    if read_ack(s, 1)? != b"+" {
        return Err(format!("session {id}: end-of-stream refused"));
    }
    Ok(())
}

/// One set-up sample: spawns `serve` with `args` for a single session and
/// times spawn → first hello ack; then closes the session and reaps the
/// process.
pub fn probe_setup(bin: &Path, args: &[String], id: &str) -> Result<Duration, String> {
    let mut args = args.to_vec();
    args.extend(["--connections".to_string(), "1".to_string()]);
    let serve = Serve::spawn(bin, &args)?;
    let mut s = connect(serve.addr)?;
    hello(&mut s, id, None)?;
    let setup = serve.spawned.elapsed();
    close(&mut s, id)?;
    drop(s);
    serve.finish()?;
    Ok(setup)
}

/// Median of `samples` durations, in seconds.
pub fn median_s(samples: &[Duration]) -> f64 {
    let v: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    crate::stats::median(&v)
}
