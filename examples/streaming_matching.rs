//! Online map matching: feed cellular observations one at a time and watch
//! the committed path grow with a fixed lag — the mode a live traffic
//! system would run in.
//!
//! ```sh
//! cargo run --release --example streaming_matching
//! ```

use lhmm::core::candidates::{nearest_segments, to_candidates};
use lhmm::core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm::core::streaming::StreamingEngine;
use lhmm::eval::metrics::evaluate_path;
use lhmm::prelude::*;

fn main() {
    println!("generating dataset ...");
    let ds = Dataset::generate(&DatasetConfig::tiny_test(23));
    let rec = ds
        .test
        .iter()
        .max_by_key(|r| r.cellular.len())
        .expect("non-empty test split");
    let positions = rec.cellular.effective_positions();

    let mut model = ClassicModel::new(
        ClassicObservation::cellular(),
        ClassicTransition::cellular(),
        positions.clone(),
    );

    let lag = 3;
    let mut stream = StreamingEngine::new(&ds.network, lag);
    println!(
        "streaming {} observations with a {lag}-observation commit lag:\n",
        rec.cellular.len()
    );
    println!(
        "{:>5} {:>10} {:>12} {:>16}",
        "obs", "committed", "path segs", "path length (m)"
    );
    for (i, p) in rec.cellular.points.iter().enumerate() {
        let pairs = nearest_segments(&ds.network, &ds.index, positions[i], 20, 3_000.0);
        if pairs.is_empty() {
            continue;
        }
        let layer = to_candidates(&mut model, i, &pairs);
        let committed = match stream.push(positions[i], p.t, layer, &mut model) {
            Ok(n) => n,
            Err(e) => {
                // Unmatchable observation: skip it and keep streaming.
                println!("{i:>5} skipped ({e})");
                continue;
            }
        };
        println!(
            "{:>5} {:>10} {:>12} {:>16.0}",
            i,
            committed,
            stream.committed().len(),
            stream.committed().length(&ds.network)
        );
    }
    let (path, _) = stream.finalize();
    let q = evaluate_path(&ds.network, &path, &rec.truth);
    println!(
        "\nfinal: {} segments | precision {:.3} | recall {:.3} | CMF50 {:.3}",
        path.len(),
        q.precision,
        q.recall,
        q.cmf50
    );
    println!("(offline LHMM with shortcuts remains the accuracy reference; streaming trades accuracy for latency)");
}
