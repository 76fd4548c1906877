//! A live sensor feed maintained incrementally and served through the
//! sharded query layer.
//!
//! Wind-direction sensors (the paper's WD dataset) keep appending
//! readings; a dashboard wants bounded answers about the last `n`
//! readings. Each tick of the loop below appends a batch of readings and
//! incrementally rebuilds the exact DGreedyAbs synopsis on the simulated
//! cluster — only the base sub-trees the batch touched re-run — together
//! with the bound it is served with (its error estimate widened by one
//! histogram bucket). The [`ServeDriver`] re-shards it along error-tree
//! partitions and atomically swaps it into the query store.
//!
//! The dashboard side never touches snapshot internals: it takes a
//! [`reader`](dwmaxerr::serve::SynopsisStore::reader) pinned to one
//! store version and asks point / range-sum queries through the public
//! query API — every answer arrives with the `err_abs` guarantee it can
//! show next to the number. A reader taken before a rebuild keeps
//! answering from its pinned version while new readers see the fresh
//! one.
//!
//! Run with: `cargo run --release --example sensor_stream`
//!
//! [`ServeDriver`]: dwmaxerr::serve::ServeDriver

use dwmaxerr::core::dgreedy_abs::DGreedyAbsConfig;
use dwmaxerr::datagen::wd_like;
use dwmaxerr::runtime::{Cluster, ClusterConfig};
use dwmaxerr::serve::{Query, ServeDriver};

fn main() {
    let n = 1 << 12; // window: the last 4 096 readings
    let batch = n / 16; // 256 readings arrive per tick
    let budget = n / 16;
    let shards = 16; // error-tree partitions on the read path
    let cfg = DGreedyAbsConfig {
        base_leaves: 1 << 8,
        bucket_width: 1e-6,
        reducers: 2,
        max_candidates: None,
    };
    let cluster = Cluster::new(ClusterConfig::default());
    let mut driver =
        ServeDriver::new(n, budget, &cfg, shards, "sensor-dashboard").expect("window setup");
    let store = driver.store().clone(); // what a dashboard would hold

    // One long simulated feed, appended batch by batch. The first tick
    // fills the whole window (a full build); later ticks slide it.
    let feed = wd_like(4 * n, 2e-4, 7);
    let mut offset = 0usize;

    println!(
        "{:>4} {:>6} {:>6} {:>12} {:>7}",
        "tick", "dirty", "tasks", "bound", "store v"
    );
    let mut first = true;
    let mut pinned = None; // a reader taken after tick 1, held across rebuilds
    while offset < feed.len() {
        let take = if first { n } else { batch };
        let chunk = &feed[offset..(offset + take).min(feed.len())];
        offset += chunk.len();
        first = false;

        let report = driver.tick(&cluster, chunk).expect("tick");
        let bound = report.build.update.bound.err_abs;
        println!(
            "{:>4} {:>6} {:>6} {:>11.2}° {:>7}",
            report.store_version,
            report.build.dirty_bases,
            report.build.background_tasks,
            bound.expect("exact builds carry a bound"),
            report.store_version,
        );
        if pinned.is_none() {
            pinned = Some(store.reader().expect("tick published"));
        }
    }

    // The dashboard's query side: bounded answers from the latest store
    // version, via single queries and a batch.
    let reader = store.reader().expect("store is live");
    let window = driver.driver().window();
    let x = n / 3;
    let point = reader.point(x).expect("in range");
    println!(
        "\nd̂_{x} = {:.2}° ± {:.2}° (store v{}, true value {:.2}°)",
        point.value,
        point.err_abs.expect("served answers carry a bound"),
        point.version,
        window.data()[x],
    );

    let (l, h) = (n / 2, n / 2 + 255);
    let range = reader.range_sum(l, h).expect("in range");
    println!(
        "d̂({l}:{h}) = {:.1}° ± {:.1}° (bound scales with the {} summed points)",
        range.value,
        range.err_abs.expect("range answers carry a scaled bound"),
        h - l + 1,
    );

    let batch_queries = [
        Query::Point { x: 7 },
        Query::Point { x: n - 1 },
        Query::RangeSum { l: 0, h: 1023 },
        Query::Point { x: 7 }, // repeat: answered from the batch memo
    ];
    let answers = reader.execute(&batch_queries).expect("valid batch");
    println!(
        "batch of {}: all answered from pinned store v{}",
        answers.len(),
        answers[0].version,
    );

    // The reader pinned after tick 1 still answers from version 1 even
    // though the store has moved on — snapshot swaps never tear a reader.
    let old = pinned.expect("set after tick 1");
    assert_eq!(old.version(), 1);
    assert!(old.version() < reader.version());
    println!(
        "pinned reader still serves store v{} while fresh readers see v{}",
        old.version(),
        reader.version(),
    );
}
