//! Fault injection over a real Unix socket: a flood of oversize length
//! prefixes and a client that hangs up inside a frame must cost the
//! server only those connections. A fresh client still gets a correct
//! answer, and shutdown still returns.

#![cfg(unix)]

use aim_bench::fingerprint_text;
use aim_pipeline::{BackendChoice, MachineClass};
use aim_serve::{request_over, serve_unix, ConfigSpec, JobResponse, Server, Source};
use aim_types::wire::{WireMsg, MAX_FRAME_BYTES};
use aim_workloads::Scale;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long any single exchange may take before the server counts as hung.
const PATIENCE: Duration = Duration::from_secs(60);

fn connect(sock: &std::path::Path) -> UnixStream {
    let stream = UnixStream::connect(sock).expect("connect");
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    stream.set_write_timeout(Some(PATIENCE)).unwrap();
    stream
}

/// The server hangs up on `stream` without replying: the next read sees
/// end-of-stream or a reset, not a frame and not a timeout.
fn assert_dropped(mut stream: UnixStream, what: &str) {
    match stream.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
        other => panic!("{what}: the server did not hang up ({other:?})"),
    }
}

#[test]
fn oversize_floods_and_torn_frames_leave_the_server_serving() {
    let dir = std::env::temp_dir().join(format!("aim_serve_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Arc::new(Server::new(&dir.join("cache"), 1).unwrap());
    let sock = dir.join("serve.sock");

    let (done_tx, done_rx) = mpsc::channel();
    let accept = {
        let server = Arc::clone(&server);
        let sock = sock.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(serve_unix(&server, &sock).map_err(|e| e.to_string()));
        })
    };
    for _ in 0..500 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // A flood: many connections, each announcing frames one byte over the
    // cap, back to back. The server must refuse the first without
    // allocating for it and drop the connection.
    let oversize = u32::try_from(MAX_FRAME_BYTES + 1).unwrap().to_be_bytes();
    for _ in 0..16 {
        let mut stream = connect(&sock);
        for _ in 0..64 {
            // Writes after the server hung up fail; that is the point.
            if stream.write_all(&oversize).is_err() {
                break;
            }
        }
        assert_dropped(stream, "oversize prefix");
    }

    // Hang-ups mid-frame: one inside the length header, one halfway
    // through an announced body.
    let mut torn_header = connect(&sock);
    torn_header.write_all(&oversize[..2]).unwrap();
    drop(torn_header);
    let mut torn_body = connect(&sock);
    torn_body.write_all(&1_000u32.to_be_bytes()).unwrap();
    torn_body.write_all(&[b'{'; 500]).unwrap();
    drop(torn_body);

    // A fresh client gets a correct answer: the served record is the one
    // an in-process simulation of the same job produces.
    let spec = ConfigSpec::new(MachineClass::Baseline, BackendChoice::NoSpec).job("gzip", Scale::Tiny);
    let mut client = connect(&sock);
    let reply = request_over(&mut client, &spec.to_wire(false, false)).expect("a reply in time");
    let resp = JobResponse::from_wire(&reply).unwrap();
    assert_eq!(resp.source, Source::Sim);
    assert_eq!(resp.fingerprint, fingerprint_text(&resp.stats_text));
    let program = aim_workloads::by_name("gzip", Scale::Tiny).unwrap().program;
    let local = aim_pipeline::simulate(&program, &spec.config.to_config()).unwrap();
    assert_eq!(resp.stats().unwrap().with_zeroed_host(), local.with_zeroed_host());

    // Shutdown is acknowledged and the accept loop returns.
    let mut shutdown = WireMsg::new();
    shutdown.put_str("op", "shutdown");
    let reply = request_over(&mut client, &shutdown).expect("a shutdown reply in time");
    assert_eq!(reply.bool_field("ok"), Some(true));
    drop(client);
    let served = done_rx.recv_timeout(PATIENCE).expect("the server hung after the faults");
    assert_eq!(served, Ok(()));
    accept.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
