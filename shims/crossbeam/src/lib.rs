//! Offline shim for `crossbeam`: scoped threads over `std::thread::scope`
//! (stable since 1.63, so the crossbeam dependency is pure API compat), plus
//! the subset of `crossbeam::channel` the workspace uses (see [`channel`]).
//!
//! Panic semantics differ slightly from crossbeam: a panicking worker makes
//! `std::thread::scope` itself panic at join, so [`scope`] never actually
//! returns `Err` — callers' `.expect("worker panicked")` still behaves
//! correctly (the panic propagates, with a different message).

use std::any::Any;

/// Mirror of `crossbeam::thread::Scope`, wrapping the std scope.
#[derive(Clone, Copy)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a worker; the closure receives the scope (crossbeam signature)
    /// so nested spawns keep working.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let scope = *self;
        self.inner.spawn(move || f(&scope))
    }
}

/// Mirror of `crossbeam::scope`.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(|s| f(&Scope { inner: s })))
}

pub mod thread {
    pub use crate::{scope, Scope};
}

/// Offline subset of `crossbeam::channel`: multi-producer/multi-consumer
/// bounded and unbounded channels over `std::sync::mpsc`.
///
/// `std::sync::mpsc::Sender`/`SyncSender` are `Sync` since Rust 1.72, so
/// producers share the sender directly; the single-consumer `Receiver` is
/// wrapped in an `Arc<Mutex<_>>` to provide crossbeam's MPMC semantics
/// (each message is delivered to exactly one receiver clone). Receiving
/// briefly serializes consumers on the mutex, which is fine for the
/// job-queue workloads this workspace runs.
pub mod channel {
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    /// The channel is disconnected (all receivers dropped).
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Non-blocking send failure.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity.
        Full(T),
        /// All receivers were dropped.
        Disconnected(T),
    }

    /// The channel is disconnected and drained.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Non-blocking receive failure.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message currently queued.
        Empty,
        /// All senders were dropped and the queue is drained.
        Disconnected,
    }

    /// Timed receive failure.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders were dropped and the queue is drained.
        Disconnected,
    }

    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Tx<T> {
        fn clone(&self) -> Self {
            match self {
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
            }
        }
    }

    /// Sending half; clone freely across threads.
    pub struct Sender<T> {
        inner: Tx<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.inner {
                Tx::Unbounded(s) => s.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
                Tx::Bounded(s) => s.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
            }
        }

        /// Sends without blocking; fails with [`TrySendError::Full`] when a
        /// bounded channel is at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            match &self.inner {
                Tx::Unbounded(s) => s
                    .send(value)
                    .map_err(|mpsc::SendError(v)| TrySendError::Disconnected(v)),
                Tx::Bounded(s) => s.try_send(value).map_err(|e| match e {
                    mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                    mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
                }),
            }
        }
    }

    /// Receiving half; clones share one queue (each message goes to exactly
    /// one receiver).
    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Receiver<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, mpsc::Receiver<T>> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.lock().recv().map_err(|mpsc::RecvError| RecvError)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.lock().try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.lock().recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender {
                inner: Tx::Unbounded(tx),
            },
            Receiver {
                inner: Arc::new(Mutex::new(rx)),
            },
        )
    }

    /// A bounded MPMC channel holding at most `cap` queued messages
    /// (`cap` ≥ 1; a zero capacity is promoted to 1 rather than exposing
    /// mpsc's rendezvous semantics, which crossbeam does not share).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap.max(1));
        (
            Sender {
                inner: Tx::Bounded(tx),
            },
            Receiver {
                inner: Arc::new(Mutex::new(rx)),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    #[test]
    fn mpmc_channel_fan_out() {
        let (tx, rx) = crate::channel::unbounded::<u32>();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total = std::sync::Mutex::new(0u32);
        crate::scope(|s| {
            for _ in 0..4 {
                let rx = rx.clone();
                let total = &total;
                s.spawn(move |_| {
                    while let Ok(v) = rx.recv() {
                        *total.lock().unwrap() += v;
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(total.into_inner().unwrap(), (0..100).sum());
    }

    #[test]
    fn bounded_try_send_full() {
        let (tx, rx) = crate::channel::bounded::<u8>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(crate::channel::TrySendError::Full(3))
        ));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn recv_timeout_and_disconnect() {
        let (tx, rx) = crate::channel::unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(crate::channel::RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(crate::channel::RecvTimeoutError::Disconnected)
        );
        assert_eq!(
            rx.try_recv(),
            Err(crate::channel::TryRecvError::Disconnected)
        );
    }

    #[test]
    fn sender_shared_across_threads() {
        let (tx, rx) = crate::channel::bounded::<u32>(64);
        crate::scope(|s| {
            for t in 0..4u32 {
                let tx = tx.clone();
                s.spawn(move |_| {
                    for i in 0..8 {
                        tx.send(t * 8 + i).unwrap();
                    }
                });
            }
        })
        .unwrap();
        drop(tx);
        let mut got: Vec<u32> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_workers_share_stack_data() {
        let data = [1u32, 2, 3, 4];
        let total = std::sync::Mutex::new(0u32);
        crate::scope(|s| {
            for chunk in data.chunks(2) {
                s.spawn(|_| {
                    *total.lock().unwrap() += chunk.iter().sum::<u32>();
                });
            }
        })
        .unwrap();
        assert_eq!(total.into_inner().unwrap(), 10);
    }
}
