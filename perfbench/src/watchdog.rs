//! Stall watchdog: every timed operation runs under a deadline, and a
//! missed deadline becomes a structured report instead of a hang.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the watchdog saw when an operation overran its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// The workload being measured.
    pub workload: String,
    /// The operation that overran.
    pub operation: String,
    /// The last fleet epoch a trace sink saw flushed, when a sink is
    /// attached (untraced runs attach none).
    pub last_flushed_epoch: Option<u64>,
    /// Time since the operation started.
    pub elapsed: Duration,
    /// The deadline it was given.
    pub deadline: Duration,
}

impl StallReport {
    /// The report as one JSON object line.
    #[must_use]
    pub fn to_json_line(&self, attempted: u64, failed: u64) -> String {
        let epoch = self
            .last_flushed_epoch
            .map_or_else(|| "null".to_string(), |e| e.to_string());
        format!(
            "{{\"stall\": {{\"workload\": \"{}\", \"operation\": \"{}\", \"last_flushed_epoch\": {epoch}, \"elapsed_s\": {}, \"deadline_s\": {}}}, \"attempted\": {attempted}, \"failed\": {failed}}}",
            self.workload,
            self.operation,
            self.elapsed.as_secs_f64(),
            self.deadline.as_secs_f64(),
        )
    }
}

/// Progress marker a trace sink advances; `-1` means "none seen".
pub type Progress = Arc<AtomicI64>;

/// A fresh progress marker.
#[must_use]
pub fn progress() -> Progress {
    Arc::new(AtomicI64::new(-1))
}

type OnStall = Box<dyn Fn(StallReport) + Send + Sync>;

struct Armed {
    operation: String,
    started: Instant,
    deadline: Duration,
    generation: u64,
}

#[derive(Default)]
struct State {
    armed: Option<Armed>,
    generation: u64,
    shutdown: bool,
}

struct Inner {
    workload: String,
    progress: Progress,
    state: Mutex<State>,
    wake: Condvar,
    on_stall: OnStall,
}

/// A watchdog thread guarding one operation at a time.
pub struct Watchdog {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("workload", &self.inner.workload)
            .finish_non_exhaustive()
    }
}

impl Watchdog {
    /// Starts the watchdog thread. `on_stall` runs on that thread, once
    /// per overrun operation; the benchmark's handler prints the report
    /// and exits the process, since the stalled operation never returns.
    #[must_use]
    pub fn start(
        workload: &str,
        progress: Progress,
        on_stall: impl Fn(StallReport) + Send + Sync + 'static,
    ) -> Watchdog {
        let inner = Arc::new(Inner {
            workload: workload.to_string(),
            progress,
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            on_stall: Box::new(on_stall),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || watch(&inner))
        };
        Watchdog {
            inner,
            thread: Some(thread),
        }
    }

    /// Runs `op` under `deadline`. Only one operation is guarded at a
    /// time; nested calls replace the outer deadline until they return.
    pub fn guard<T>(&self, operation: &str, deadline: Duration, op: impl FnOnce() -> T) -> T {
        let generation = {
            let mut state = self.lock();
            state.generation += 1;
            state.armed = Some(Armed {
                operation: operation.to_string(),
                started: Instant::now(),
                deadline,
                generation: state.generation,
            });
            state.generation
        };
        self.inner.wake.notify_all();
        let out = op();
        let mut state = self.lock();
        if state.armed.as_ref().map(|a| a.generation) == Some(generation) {
            state.armed = None;
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.lock().shutdown = true;
        self.inner.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn watch(inner: &Inner) {
    let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if state.shutdown {
            return;
        }
        let wait = match &state.armed {
            None => None,
            Some(armed) => {
                let elapsed = armed.started.elapsed();
                if elapsed >= armed.deadline {
                    let last = inner.progress.load(Ordering::Acquire);
                    let report = StallReport {
                        workload: inner.workload.clone(),
                        operation: armed.operation.clone(),
                        last_flushed_epoch: u64::try_from(last).ok(),
                        elapsed,
                        deadline: armed.deadline,
                    };
                    state.armed = None;
                    drop(state);
                    (inner.on_stall)(report);
                    state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                Some(armed.deadline - elapsed)
            }
        };
        state = match wait {
            None => inner
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner),
            Some(left) => {
                inner
                    .wake
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
    }
}
