//! Every sender traces: the flight recorder a driver attaches through
//! `Engine::set_recorder` hears the same control signals — round-trip
//! samples, pacer transitions, timeouts or NACKs — from stop-and-wait,
//! sliding window, blast and multi-blast alike, stamped with the
//! engine's sans-I/O clock and the transfer's id.  A fixed pace hears
//! the same signals and traces no burst transition.

use std::sync::Arc;
use std::time::Duration;

use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::control::{AdaptiveTimeout, PacingConfig};
use blast_core::harness::{Harness, LossPlan, ReceiverEngine};
use blast_core::multiblast::MultiBlastSender;
use blast_core::saw::{SawReceiver, SawSender};
use blast_core::window::WindowSender;
use blast_core::{Engine, ProtocolConfig};
use blast_telemetry::{EventKind, Recorder, TraceEvent};

const ID: u32 = 7;
const CHUNK: u32 = 16;

fn data(n: usize) -> Arc<[u8]> {
    (0..n)
        .map(|i| (i * 89 % 251) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Run `sender` → `receiver` under 10 % random loss with a standalone
/// recorder on the sender; return its trace and the virtual time the
/// sender finished at.
fn traced<S: Engine, R: ReceiverEngine>(
    mut sender: S,
    receiver: R,
    payload: &[u8],
) -> (Vec<TraceEvent>, Duration) {
    let recorder = Recorder::standalone(1 << 14);
    sender.set_recorder(recorder.clone());
    let mut h = Harness::new(sender, receiver, LossPlan::random(0x7EACE, 10, 100));
    h.run().expect("transfer completes under 10 % loss");
    assert_eq!(h.received_data(), payload);
    assert!(h.dropped > 0, "the loss plan bites");
    assert_eq!(recorder.dropped(), 0, "the ring holds the whole trace");
    (
        recorder.drain(),
        h.sender_elapsed().expect("sender finished"),
    )
}

#[test]
fn every_sender_traces_its_control_signals() {
    let payload = data(64 * 1024);
    let len = payload.len();
    let mut cfg = ProtocolConfig::default()
        .with_timeout(AdaptiveTimeout::lan())
        .with_pacing(PacingConfig::lan())
        .with_multiblast_chunk(CHUNK);
    cfg.max_retries = 1_000;
    let multi = MultiBlastSender::new(ID, payload.clone(), &cfg);
    let chunks = multi.total_chunks();
    assert!(chunks >= 4);
    // A fixed pace is AIMD with equal bounds: the same signals reach the
    // pacer, but the burst never moves.
    let fixed = cfg
        .clone()
        .with_pacing(PacingConfig::new(8, Duration::from_micros(100)));
    let runs = [
        (
            "stop-and-wait",
            traced(
                SawSender::new(ID, payload.clone(), &cfg),
                SawReceiver::new(ID, len, &cfg),
                &payload,
            ),
        ),
        (
            "sliding window",
            traced(
                WindowSender::new(ID, payload.clone(), &cfg),
                SawReceiver::new(ID, len, &cfg),
                &payload,
            ),
        ),
        (
            "blast",
            traced(
                BlastSender::new(ID, payload.clone(), &cfg),
                BlastReceiver::new(ID, len, &cfg),
                &payload,
            ),
        ),
        (
            "multi-blast",
            traced(multi, BlastReceiver::new(ID, len, &cfg), &payload),
        ),
        (
            "fixed-paced sliding window",
            traced(
                WindowSender::new(ID, payload.clone(), &fixed),
                SawReceiver::new(ID, len, &fixed),
                &payload,
            ),
        ),
    ];
    for (name, (trace, finished)) in runs {
        let has = |kind: EventKind| trace.iter().any(|e| e.kind == kind);
        assert!(has(EventKind::RttSample), "{name}: no RttSample");
        if name == "fixed-paced sliding window" {
            assert!(has(EventKind::RtoBackoff), "{name}: no RtoBackoff");
            assert!(
                !has(EventKind::PacerGrow) && !has(EventKind::PacerShrink),
                "{name}: a fixed pace traced a burst transition"
            );
        } else {
            assert!(has(EventKind::PacerShrink), "{name}: no PacerShrink");
            assert!(
                has(EventKind::RtoBackoff) || has(EventKind::NackReceived),
                "{name}: neither RtoBackoff nor NackReceived"
            );
        }
        for e in &trace {
            assert_eq!(e.session, ID, "{name}: {e:?}");
            assert!(
                Duration::from_nanos(e.ts_ns) <= finished,
                "{name}: {e:?} stamped after the sender finished at {finished:?}"
            );
        }
        if name == "multi-blast" {
            // One clean round end per chunk: the chunks after the first
            // keep tracing under the transfer's id.
            let clean_ends = trace
                .iter()
                .filter(|e| e.kind == EventKind::RoundEnd && e.b == 0)
                .count();
            assert_eq!(clean_ends, chunks as usize, "{name}");
        }
    }
}
