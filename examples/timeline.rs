//! Render the paper's Figure 3 timelines for any protocol and size —
//! *why* blast beats stop-and-wait, visible at a glance: in
//! stop-and-wait the two processors' copy rows never overlap in time;
//! in blast mode they do.
//!
//! Usage: `cargo run --release --example timeline -- [saw|sw|blast|dbl] [N]`

use std::sync::Arc;

use blastlan::core::blast::{BlastReceiver, BlastSender};
use blastlan::core::saw::{SawReceiver, SawSender};
use blastlan::core::window::WindowSender;
use blastlan::core::ProtocolConfig;
use blastlan::sim::{render_timeline, SimConfig, Simulator};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let proto = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("blast")
        .to_string();
    let n: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
        .clamp(1, 20);

    let data: Vec<u8> = vec![0u8; n * 1024];
    let mut cfg = ProtocolConfig::default();
    cfg.timeout = std::time::Duration::from_secs(3600).into();

    let sim_cfg = if proto == "dbl" {
        SimConfig::double_buffered().with_trace()
    } else {
        SimConfig::standalone().with_trace()
    };
    let mut sim = Simulator::new(sim_cfg);
    let a = sim.add_host("sender");
    let b = sim.add_host("receiver");
    match proto.as_str() {
        "saw" => {
            sim.attach(a, b, Box::new(SawSender::new(1, data.clone().into(), &cfg)));
            sim.attach(b, a, Box::new(SawReceiver::new(1, data.len(), &cfg)));
        }
        "sw" => {
            sim.attach(
                a,
                b,
                Box::new(WindowSender::new(1, data.clone().into(), &cfg)),
            );
            sim.attach(b, a, Box::new(SawReceiver::new(1, data.len(), &cfg)));
        }
        _ => {
            sim.attach(
                a,
                b,
                Box::new(BlastSender::new(1, Arc::new(data.clone()), &cfg)),
            );
            sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &cfg)));
        }
    }
    let report = sim.run();
    println!(
        "{proto} transfer of {n} KB on the paper's hardware: {:.2} ms\n",
        report.elapsed_ms(a, 1).unwrap()
    );
    println!(
        "{}",
        render_timeline(&report.trace, &["sender", "receiver"], 110)
    );
    println!("digits: data packet copies/transmissions (sequence mod 10); 'a': acks.");
    println!("compare `saw` vs `blast`: the copy rows of the two hosts only overlap in blast.");
}
