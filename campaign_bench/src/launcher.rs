//! In-process fleet launcher: each worker is a thread running
//! [`run_worker`] over a pair of OS pipes, so the fleet protocol crosses
//! real file descriptors while the whole load stays in one process.
//!
//! The launcher counts every frame and byte that crosses a pipe in either
//! direction (`fleet.frames`, `fleet.frame_bytes`).

use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use ddt::core::{pump_frames, run_worker, FleetEvent, WorkerHandle, WorkerLauncher};
use ddt::trace::{encode_frame, FleetFrame};
use ddt::{Ddt, DdtConfig, DriverUnderTest, WorkerOpts};

/// Frame traffic seen by the launcher (statistics only: `Relaxed`).
#[derive(Default)]
pub struct FrameCounts {
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl FrameCounts {
    /// Frames sent or received.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Encoded bytes sent or received.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Launches fleet workers as threads connected by `std::io::pipe`s.
pub struct PipeLauncher {
    config: DdtConfig,
    dut: DriverUnderTest,
    counts: Arc<FrameCounts>,
    threads: Vec<JoinHandle<()>>,
}

impl PipeLauncher {
    /// A launcher whose workers test `dut` under `config`.
    pub fn new(config: DdtConfig, dut: DriverUnderTest) -> PipeLauncher {
        PipeLauncher {
            config,
            dut,
            counts: Arc::default(),
            threads: Vec::new(),
        }
    }

    /// The traffic counters shared with every worker's pipes.
    pub fn counts(&self) -> Arc<FrameCounts> {
        self.counts.clone()
    }

    /// Waits for every worker, pump and relay thread to end. Call after
    /// `serve` returns: the supervisor has dropped every handle by then,
    /// which closes the control pipes and lets the workers exit.
    pub fn join(&mut self) {
        for t in self.threads.drain(..) {
            t.join().expect("fleet worker thread panicked");
        }
    }
}

/// Counts the bytes a worker writes as the pump reads them.
struct CountingReader {
    inner: PipeReader,
    counts: Arc<FrameCounts>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counts.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// The supervisor's end of one worker: its control pipe.
struct PipeHandle {
    control: Option<PipeWriter>,
    counts: Arc<FrameCounts>,
}

impl WorkerHandle for PipeHandle {
    fn send(&mut self, frame: &FleetFrame) -> io::Result<()> {
        let pipe = self
            .control
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "worker killed"))?;
        let bytes = encode_frame(frame);
        pipe.write_all(&bytes)?;
        self.counts.frames.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn kill(&mut self) {
        // A thread cannot be killed; closing its control pipe is the
        // equivalent. The worker's reader sees EOF, its loop returns at the
        // next control check, and dropping its output ends the pump with
        // the `Closed` event the supervisor waits for.
        self.control = None;
    }
}

impl WorkerLauncher for PipeLauncher {
    fn spawn(
        &mut self,
        worker: u64,
        events: mpsc::Sender<FleetEvent>,
    ) -> io::Result<Box<dyn WorkerHandle>> {
        let (control_rx, control_tx) = io::pipe()?;
        let (output_rx, output_tx) = io::pipe()?;
        let ddt = Ddt::new(self.config.clone());
        let dut = self.dut.clone();
        let opts = WorkerOpts {
            worker_id: worker,
            ..WorkerOpts::default()
        };
        self.threads.push(std::thread::spawn(move || {
            // A worker that fails closes its output; the supervisor sees the
            // loss in `RunHealth`, which the oracle checks.
            let _ = run_worker(&ddt, &dut, control_rx, output_tx, opts);
        }));
        // pump → relay → supervisor: the relay counts frames on the way.
        let (relay_tx, relay_rx) = mpsc::channel::<FleetEvent>();
        let reader = CountingReader {
            inner: output_rx,
            counts: self.counts.clone(),
        };
        self.threads.push(std::thread::spawn(move || {
            pump_frames(worker, reader, relay_tx)
        }));
        let counts = self.counts.clone();
        self.threads.push(std::thread::spawn(move || {
            for event in relay_rx {
                if matches!(event, FleetEvent::Frame(..)) {
                    counts.frames.fetch_add(1, Ordering::Relaxed);
                }
                // Once the supervisor is gone, keep draining so the pump
                // can finish.
                let _ = events.send(event);
            }
        }));
        Ok(Box::new(PipeHandle {
            control: Some(control_tx),
            counts: self.counts.clone(),
        }))
    }
}
