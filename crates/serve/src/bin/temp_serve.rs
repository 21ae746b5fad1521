//! `temp-serve` — the plan-serving daemon.
//!
//! ```text
//! temp-serve [--cache-dir DIR] [--port PORT]
//! ```
//!
//! Without `--port` the server speaks the line protocol on
//! stdin/stdout: each `solve` runs on its own thread (replies land as
//! solves finish, so concurrent queries coalesce in the shared pool),
//! while `stats`/`save`/`shutdown` first drain outstanding solves so
//! their answers are settled. With `--port` it listens on
//! `127.0.0.1:PORT` and serves one protocol session per connection;
//! concurrency comes from concurrent connections. Either way a line over
//! `MAX_LINE_BYTES`, or not UTF-8, gets one error reply and the session
//! reads on.
//!
//! With `--cache-dir` the server warm-imports matching
//! `cache-<fingerprint>.txt` files on startup and saves every pooled
//! context back on `shutdown`/EOF, so a restart answers repeat queries
//! with zero exact evaluations.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use temp_serve::{
    is_noise, BoundedLines, PlanServer, ProtocolLine, Request, Response, MAX_LINE_BYTES,
};

struct Args {
    cache_dir: Option<PathBuf>,
    port: Option<u16>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cache_dir: None,
        port: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                let dir = it.next().ok_or("--cache-dir needs a directory")?;
                args.cache_dir = Some(PathBuf::from(dir));
            }
            "--port" => {
                let port = it.next().ok_or("--port needs a port number")?;
                args.port = Some(
                    port.parse()
                        .map_err(|e| format!("bad port {port:?}: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!("usage: temp-serve [--cache-dir DIR] [--port PORT]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Stdin session: solves fan out to threads, control requests drain
/// them first so `stats` and `shutdown` see settled counters.
fn serve_stdin(server: Arc<PlanServer>) -> std::io::Result<()> {
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let mut solves: Vec<thread::JoinHandle<()>> = Vec::new();
    let stdin = std::io::stdin();
    for line in BoundedLines::new(stdin.lock(), MAX_LINE_BYTES) {
        let line = match line? {
            ProtocolLine::Text(line) => line,
            ProtocolLine::Rejected(reason) => {
                let mut out = stdout.lock().expect("stdout lock");
                writeln!(out, "{}", server.reject(&reason).text())?;
                out.flush()?;
                continue;
            }
        };
        if is_noise(&line) {
            continue;
        }
        if matches!(Request::parse(&line), Ok(Request::Solve(_))) {
            let server = Arc::clone(&server);
            let stdout = Arc::clone(&stdout);
            solves.push(thread::spawn(move || {
                let response = server.handle_line(&line);
                let mut out = stdout.lock().expect("stdout lock");
                let _ = writeln!(out, "{}", response.text());
                let _ = out.flush();
            }));
            continue;
        }
        for handle in solves.drain(..) {
            let _ = handle.join();
        }
        let response = server.handle_line(&line);
        {
            let mut out = stdout.lock().expect("stdout lock");
            writeln!(out, "{}", response.text())?;
            out.flush()?;
        }
        if matches!(response, Response::Quit(_)) {
            return Ok(());
        }
    }
    // EOF without an explicit shutdown still persists the caches.
    for handle in solves.drain(..) {
        let _ = handle.join();
    }
    server.save()?;
    Ok(())
}

/// One TCP protocol session. A `shutdown` request flips the stop flag
/// and pokes the listener so the accept loop can exit.
fn serve_connection(
    server: &PlanServer,
    stream: TcpStream,
    stop: &AtomicBool,
    self_addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    for line in BoundedLines::new(BufReader::new(stream), MAX_LINE_BYTES) {
        let response = match line? {
            ProtocolLine::Text(line) if is_noise(&line) => continue,
            ProtocolLine::Text(line) => server.handle_line(&line),
            ProtocolLine::Rejected(reason) => server.reject(&reason),
        };
        writeln!(writer, "{}", response.text())?;
        writer.flush()?;
        if matches!(response, Response::Quit(_)) {
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self_addr);
            break;
        }
    }
    Ok(())
}

fn serve_tcp(server: Arc<PlanServer>, port: u16) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    eprintln!("temp-serve: listening on {addr}");
    let stop = Arc::new(AtomicBool::new(false));
    let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        sessions.push(thread::spawn(move || {
            if let Err(e) = serve_connection(&server, stream, &stop, addr) {
                eprintln!("temp-serve: session error: {e}");
            }
        }));
    }
    for handle in sessions {
        let _ = handle.join();
    }
    // `shutdown` already saved inside handle_line; saving again is a
    // cheap idempotent rewrite and also covers listener errors.
    server.save()?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("temp-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match PlanServer::new(args.cache_dir.as_deref()) {
        Ok(server) => Arc::new(server),
        Err(e) => {
            eprintln!("temp-serve: cache dir unusable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let served = match args.port {
        Some(port) => serve_tcp(server, port),
        None => serve_stdin(server),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("temp-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
