//! The open-loop load generator: seeded Poisson send schedules and a
//! pipelined connection loop that sends every request at its due time
//! whether or not earlier ones were answered.
//!
//! Each connection is one thread that both sends and receives: it
//! writes a frame as soon as the request is due, and between sends it
//! reads whatever responses arrived, waiting at most until the next due
//! time. The server answers a connection's frames in order, so
//! responses pair with requests first-in first-out. Latency is timed
//! from the due time, so a stall in the server (or in this thread)
//! counts against every request it delays, and how late each send went
//! out is recorded on its own.
//!
//! The threads sleep rather than poll while they wait: a polling
//! client on a 2-vCPU host competes with the server's own threads, and
//! in trials it widened the serving latency quartiles.

use diversity_net::frame::{write_frame, FrameReader, Opcode, ReadOutcome};
use diversity_net::proto::{split_response, Status};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a connection waits for outstanding responses after its
/// last due time before counting them as failed.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Longest single read wait, so a quiet connection still re-checks its
/// schedule often.
const MAX_POLL: Duration = Duration::from_millis(2);

/// Due offsets (from the phase start) of a Poisson arrival process at
/// `rate` per second over `seconds`, drawn from `(seed, stream)` alone.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64, stream: u64) -> Vec<Duration> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "schedule needs a positive rate and length"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        if at >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// One request of a connection's script: its due time and its
/// encoded frame.
#[derive(Clone, Debug)]
pub struct Request {
    pub due: Duration,
    frame: Vec<u8>,
}

impl Request {
    pub fn new(due: Duration, opcode: Opcode, payload: &[u8]) -> Request {
        let mut frame = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut frame, opcode, payload).expect("writing to a Vec cannot fail");
        Request { due, frame }
    }
}

/// What became of one request.
#[derive(Debug)]
pub struct Outcome {
    /// Position in its connection's script.
    pub index: usize,
    /// Due, sent and received times as offsets from the phase start.
    pub due: Duration,
    pub sent: Duration,
    pub received: Duration,
    /// The response status and body; `None` if no response came.
    pub response: Option<(Status, Vec<u8>)>,
    /// Size of the whole response frame payload.
    pub response_bytes: usize,
}

impl Outcome {
    /// Latency from the due time.
    pub fn latency(&self) -> Duration {
        self.received.saturating_sub(self.due)
    }

    /// How late the send went out.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs `script` (sorted by due time) over one new connection to
/// `addr`, with due times relative to `start`, handing each outcome to
/// `on_outcome` as its response arrives. Requests still unanswered
/// `drain_limit` after the last due time are reported without a
/// response. Returns an error only if the connection itself fails.
pub fn drive(
    addr: SocketAddr,
    start: Instant,
    script: &[Request],
    drain_limit: Duration,
    mut on_outcome: impl FnMut(Outcome),
) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new(stream);
    // (script index, sent offset) of requests awaiting their response.
    let mut pending: VecDeque<(usize, Duration)> = VecDeque::new();
    let mut next = 0;
    let drain_deadline = script.last().map_or(Duration::ZERO, |r| r.due) + drain_limit;
    loop {
        let now = start.elapsed();
        if let Some(request) = script.get(next).filter(|r| r.due <= now) {
            writer
                .write_all(&request.frame)
                .map_err(|e| format!("send: {e}"))?;
            pending.push_back((next, start.elapsed()));
            next += 1;
            continue;
        }
        let wait = match script.get(next) {
            Some(request) => request.due.saturating_sub(now),
            None if pending.is_empty() => return Ok(()),
            None if now >= drain_deadline => {
                for (index, sent) in pending.drain(..) {
                    let due = script[index].due;
                    let outcome = Outcome {
                        index,
                        due,
                        sent,
                        received: now,
                        response: None,
                        response_bytes: 0,
                    };
                    on_outcome(outcome);
                }
                return Ok(());
            }
            None => MAX_POLL,
        };
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        let timeout = wait.clamp(Duration::from_micros(20), MAX_POLL);
        writer
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        let frame = match reader.poll_frame() {
            Ok(ReadOutcome::Frame(frame)) => frame,
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Closed) => return Err("server closed the connection".into()),
            Err(e) => return Err(format!("receive: {e}")),
        };
        let received = start.elapsed();
        let (index, sent) = pending
            .pop_front()
            .ok_or("response with no request outstanding")?;
        let response = split_response(&frame.payload)
            .ok()
            .map(|(status, body)| (status, body.to_vec()));
        let due = script[index].due;
        let response_bytes = frame.payload.len();
        on_outcome(Outcome {
            index,
            due,
            sent,
            received,
            response,
            response_bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed_and_stream() {
        let a = poisson_schedule(500.0, 2.0, 42, 0);
        assert_eq!(a, poisson_schedule(500.0, 2.0, 42, 0));
        assert_ne!(a, poisson_schedule(500.0, 2.0, 43, 0));
        assert_ne!(a, poisson_schedule(500.0, 2.0, 42, 1));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(2));
        // Poisson count over 2 s at 500/s: mean 1000, sd ~32.
        assert!((850..1150).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn sends_keep_to_the_schedule_when_the_server_never_answers() {
        // A peer that reads every frame and answers none: a closed loop
        // would stall after the first request; the open loop must send
        // all of them on time and report each as unanswered.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream);
            let mut frames = 0;
            while let Ok(outcome) = reader.poll_frame() {
                match outcome {
                    ReadOutcome::Frame(_) => frames += 1,
                    ReadOutcome::Closed => break,
                    ReadOutcome::Idle => {}
                }
            }
            frames
        });
        let script: Vec<Request> = (0..10)
            .map(|i| Request::new(Duration::from_millis(10 * i), Opcode::Query, &[i as u8]))
            .collect();
        let mut outcomes = Vec::new();
        let drain = Duration::from_millis(100);
        drive(addr, Instant::now(), &script, drain, |o| outcomes.push(o)).unwrap();
        assert_eq!(peer.join().unwrap(), 10);
        assert_eq!(outcomes.len(), 10);
        for o in &outcomes {
            assert!(o.response.is_none());
            assert!(
                o.lateness() < Duration::from_millis(50),
                "send {} went out {:?} late",
                o.index,
                o.lateness()
            );
        }
    }

    #[test]
    fn outcome_times_from_the_due_time() {
        let o = Outcome {
            index: 0,
            due: Duration::from_millis(10),
            sent: Duration::from_millis(12),
            received: Duration::from_millis(15),
            response: None,
            response_bytes: 0,
        };
        assert_eq!(o.latency(), Duration::from_millis(5));
        assert_eq!(o.lateness(), Duration::from_millis(2));
    }
}
