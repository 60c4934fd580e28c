//! Run a blast transfer node.
//!
//! ```bash
//! cargo run --release --example node_server -- 127.0.0.1:47611 --sessions 2 --shards 4 --seed demo
//! ```
//!
//! Binds the given address (default `127.0.0.1:47611`) as a reactor
//! group of `--shards` threads (default 1; needs `SO_REUSEPORT`, falls
//! back to one shard elsewhere), optionally seeds the store with a demo
//! blob, serves the given number of sessions (default: forever), then
//! prints the aggregate metrics and the per-shard breakdown.  Pair it
//! with the `node_client` example.

use std::time::Duration;

use blast_node::server::NodeBuilder;
use blast_node::shared_store;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:47611".to_string();
    let mut sessions: Option<u64> = None;
    let mut seed: Option<String> = None;
    let mut shards = 1usize;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sessions" => sessions = it.next().and_then(|v| v.parse().ok()),
            "--seed" => seed = it.next(),
            "--shards" => shards = it.next().and_then(|v| v.parse().ok()).unwrap_or(1),
            other => addr = other.to_string(),
        }
    }

    let store = shared_store();
    if let Some(name) = &seed {
        let blob: Vec<u8> = (0..128 * 1024).map(|i| (i % 251) as u8).collect();
        store.put(name, blob.into());
        println!("seeded blob '{name}' (128 KiB)");
    }

    let node = NodeBuilder::new()
        .bind(addr.parse().expect("bind address like 127.0.0.1:47611"))
        .shards(shards)
        .store(store)
        .start()?;
    println!(
        "blast-node listening on {} ({} shard(s))",
        node.addr(),
        node.shards()
    );

    match sessions {
        Some(n) => {
            println!("serving {n} session(s), then reporting…");
            while !node.wait_sessions(n, Duration::from_secs(3600)) {}
        }
        None => {
            println!("serving forever (Ctrl-C to stop)…");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }

    let store = node.store();
    let shard_metrics = node.shard_metrics();
    let metrics = node.shutdown()?;
    println!("\n{}", metrics.summary());
    if shard_metrics.len() > 1 {
        for (i, shard) in shard_metrics.iter().enumerate() {
            println!("{}", shard.shard_summary(i));
        }
    }
    println!(
        "store: {} blob(s), {} bytes total: {:?}",
        store.len(),
        store.total_bytes(),
        store.names()
    );
    Ok(())
}
