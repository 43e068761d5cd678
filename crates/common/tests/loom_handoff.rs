//! Loom models of the joint-subscription handoff channel and the
//! compactor [`WakeSignal`]: exhaustive interleaving checks that no
//! schedule loses a wakeup.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p asterix-common --test loom_handoff`
//!
//! Lost wakeups surface in the model as deadlocks (an untimed waiter that
//! nothing will ever wake aborts the schedule), so plain test success *is*
//! the proof. For the timed compactor wait, [`loom::timed_out_waits`]
//! additionally proves the timeout never fired — the 20ms safety-net poll
//! in the compactor loop is genuinely a safety net, not load-bearing.
#![cfg(loom)]

use asterix_common::sync::{handoff, WakeEvent, WakeSignal};
use loom::sync::Arc;
use std::time::Duration;

#[test]
fn handoff_delivers_everything_no_lost_wakeup() {
    loom::model(|| {
        let (tx, rx) = handoff::bounded(2);
        let producer = loom::thread::spawn(move || {
            tx.try_send(1u32).expect("capacity 2, first send fits");
            tx.send(2u32).expect("receiver alive");
            // tx dropped here: the receive loop below must terminate
        });
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2], "in order, nothing lost");
    });
}

#[test]
fn handoff_blocking_send_wakes_on_recv() {
    loom::model(|| {
        // capacity 1 forces the producer's second send to block; the
        // consumer's recv must always wake it (a lost not_full notification
        // would deadlock the schedule)
        let (tx, rx) = handoff::bounded(1);
        let producer = loom::thread::spawn(move || {
            tx.send(10u32).expect("receiver alive");
            tx.send(20u32).expect("receiver alive");
        });
        assert_eq!(rx.recv(), Ok(10));
        assert_eq!(rx.recv(), Ok(20));
        assert_eq!(rx.recv(), Err(handoff::RecvError));
        producer.join().unwrap();
    });
}

#[test]
fn handoff_receiver_drop_unblocks_sender() {
    loom::model(|| {
        let (tx, rx) = handoff::bounded(1);
        tx.try_send(1u32).expect("room");
        let producer = loom::thread::spawn(move || {
            // queue is full; this blocks until the receiver drops, then
            // must fail cleanly instead of hanging
            tx.send(2u32)
        });
        drop(rx);
        assert_eq!(
            producer.join().unwrap(),
            Err(handoff::SendError(2)),
            "disconnect reported, value returned"
        );
    });
}

#[test]
fn wake_signal_never_needs_the_timeout() {
    loom::model(|| {
        let sig = Arc::new(WakeSignal::new());
        let s2 = Arc::clone(&sig);
        let worker = loom::thread::spawn(move || s2.wait_timeout(Duration::from_millis(20)));
        sig.wake();
        assert_eq!(worker.join().unwrap(), WakeEvent::Woken);
        assert_eq!(
            loom::timed_out_waits(),
            0,
            "flag-under-mutex protocol must never rely on the timeout"
        );
    });
}

#[test]
fn wake_signal_shutdown_terminates_worker_loop() {
    loom::model(|| {
        let sig = Arc::new(WakeSignal::new());
        let s2 = Arc::clone(&sig);
        // the compactor loop shape: consume wakes until shutdown
        let worker = loom::thread::spawn(move || {
            let mut wakes = 0u32;
            loop {
                match s2.wait_timeout(Duration::from_millis(20)) {
                    WakeEvent::Woken | WakeEvent::TimedOut => wakes += 1,
                    WakeEvent::Shutdown => return wakes,
                }
            }
        });
        sig.wake();
        sig.shutdown();
        // terminates on every schedule (no lost shutdown), having seen at
        // most the one wake
        assert!(worker.join().unwrap() <= 1);
        assert_eq!(loom::timed_out_waits(), 0);
    });
}
