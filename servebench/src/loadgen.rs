//! The open-loop load generator: one query connection, two threads.
//!
//! The main thread sends each frame when it falls due, sleeping in
//! between, and never waits for a reply; a receiver thread timestamps
//! every frame the daemon sends back. Latency is measured from the due
//! time, so a generator or daemon stall is charged to every request it
//! delays. A `STATS` frame goes out once per second on the same
//! connection, the way a monitoring agent scrapes.

use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use meloppr::server::{FrameEvent, FrameReader, Response, TelemetrySnapshot};

use crate::daemon::write_payload;
use crate::workload::Req;

/// How long after the last due time plus deadline to wait for stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// What happened to one request of a phase.
#[derive(Debug)]
pub struct Outcome {
    /// When the frame was due.
    pub due: Instant,
    /// When the generator actually sent it.
    pub sent: Instant,
    /// The response and when it arrived (`None`: never answered).
    pub response: Option<(Instant, Response)>,
}

/// One `STATS` scrape: send time, receive time, parsed snapshot.
#[derive(Debug)]
pub struct Scrape {
    pub sent: Instant,
    pub received: Instant,
    pub snapshot: TelemetrySnapshot,
}

/// The measured window: per-request outcomes in schedule order, and the
/// scrapes (the first is taken at the window's start, the last after
/// every request was answered or given up on).
#[derive(Debug)]
pub struct Window {
    pub outcomes: Vec<Outcome>,
    pub scrapes: Vec<Scrape>,
    /// Frames the generator could not attribute (unknown ids, unparsable).
    pub stray_frames: Vec<String>,
}

/// A connection driven by the generator.
pub struct Client {
    conn: TcpStream,
    frames: mpsc::Receiver<(Instant, String)>,
    receiver: Option<std::thread::JoinHandle<()>>,
}

impl Client {
    pub fn new(conn: TcpStream) -> Result<Client, String> {
        let mut read_half = conn
            .try_clone()
            .map_err(|e| format!("cloning the connection: {e}"))?;
        let (tx, frames) = mpsc::channel();
        let receiver = std::thread::spawn(move || {
            let mut reader = FrameReader::new();
            while let Ok(FrameEvent::Frame(payload)) = reader.read_event(&mut read_half) {
                if tx.send((Instant::now(), payload)).is_err() {
                    break;
                }
            }
        });
        Ok(Client {
            conn,
            frames,
            receiver: Some(receiver),
        })
    }

    /// Offers `reqs` on schedule (due times relative to the phase start)
    /// and waits until each is answered or abandoned. With `scrape`, a
    /// `STATS` frame is sent at the start, once per second, and once
    /// more after the drain.
    pub fn run_phase(&mut self, reqs: &[Req], scrape: bool) -> Result<Window, String> {
        let mut sends: Vec<(f64, Option<usize>)> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.due_s, Some(i)))
            .collect();
        let span_s = reqs.last().map_or(0.0, |r| r.due_s);
        if scrape {
            let ticks = span_s.floor() as usize;
            sends.extend((0..=ticks).map(|t| (t as f64, None)));
        }
        // Stable sort: a scrape due at the same instant as a request
        // keeps schedule order (requests were pushed first).
        sends.sort_by(|a, b| a.0.total_cmp(&b.0));

        let start = Instant::now() + Duration::from_millis(20);
        let mut sent = vec![None; reqs.len()];
        let mut scrape_sent = Vec::new();
        for (due_s, what) in sends {
            let due = start + Duration::from_secs_f64(due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            match what {
                Some(i) => {
                    write_payload(&mut self.conn, &reqs[i].frame)?;
                    sent[i] = Some(Instant::now());
                }
                None => {
                    write_payload(&mut self.conn, "STATS")?;
                    scrape_sent.push(Instant::now());
                }
            }
        }

        let max_deadline_ms = reqs.iter().map(|r| r.deadline_ms).fold(0.0, f64::max);
        let mut give_up =
            start + Duration::from_secs_f64(span_s + max_deadline_ms / 1e3) + DRAIN_GRACE;
        let first_id = reqs.first().map_or(0, |r| r.id);
        let mut responses: Vec<Option<(Instant, Response)>> = vec![None; reqs.len()];
        let mut answered = 0usize;
        let mut scrapes = Vec::new();
        let mut stray_frames = Vec::new();
        let mut final_scrape_sent = !scrape;
        loop {
            let timed_out = Instant::now() > give_up;
            if (answered == reqs.len() || timed_out) && !final_scrape_sent {
                // The closing scrape goes out once everything is answered
                // (or abandoned), so the window's counters are complete.
                write_payload(&mut self.conn, "STATS")?;
                scrape_sent.push(Instant::now());
                final_scrape_sent = true;
                give_up = Instant::now() + DRAIN_GRACE;
                continue;
            }
            let done = answered == reqs.len() && scrapes.len() == scrape_sent.len();
            if done || timed_out {
                break;
            }
            let (at, payload) = match self.frames.recv_timeout(Duration::from_millis(50)) {
                Ok(frame) => frame,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("the daemon closed the connection mid-run".into())
                }
            };
            match Response::parse(&payload) {
                Ok(Response::Stats(rendered)) => {
                    let snapshot = TelemetrySnapshot::parse_compact(&rendered)
                        .map_err(|e| format!("bad STATS frame: {e}"))?;
                    let sent = *scrape_sent
                        .get(scrapes.len())
                        .ok_or("a STATS reply nobody asked for")?;
                    scrapes.push(Scrape {
                        sent,
                        received: at,
                        snapshot,
                    });
                }
                Ok(response) => {
                    let id = match &response {
                        Response::Ranking { id, .. }
                        | Response::Rejected { id, .. }
                        | Response::Error { id, .. } => *id,
                        _ => 0,
                    };
                    let slot = id
                        .checked_sub(first_id)
                        .and_then(|i| responses.get_mut(i as usize));
                    match slot {
                        Some(slot @ None) => {
                            *slot = Some((at, response));
                            answered += 1;
                        }
                        _ => stray_frames.push(payload),
                    }
                }
                Err(_) => stray_frames.push(payload),
            }
        }

        let outcomes = reqs
            .iter()
            .zip(sent)
            .zip(responses)
            .map(|((req, sent), response)| Outcome {
                due: start + Duration::from_secs_f64(req.due_s),
                sent: sent.expect("every request was sent"),
                response,
            })
            .collect();
        Ok(Window {
            outcomes,
            scrapes,
            stray_frames,
        })
    }

    /// Half-closes the connection and waits for the receiver thread to
    /// see the daemon close its side.
    pub fn close(mut self) -> Result<(), String> {
        self.conn
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("closing the connection: {e}"))?;
        if let Some(receiver) = self.receiver.take() {
            receiver
                .join()
                .map_err(|_| "the receiver thread panicked".to_string())?;
        }
        Ok(())
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // On error paths: unblock and reap the receiver thread.
        let _ = self.conn.shutdown(Shutdown::Both);
        if let Some(receiver) = self.receiver.take() {
            let _ = receiver.join();
        }
    }
}
