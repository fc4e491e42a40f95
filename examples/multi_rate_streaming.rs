//! Heterogeneous client speeds: 40% of clients stream at 15 tok/s and 60%
//! at 20 tok/s (the Figure 19 workload). TokenFlow's buffer-aware
//! prioritisation differentiates the classes automatically — faster
//! readers drain buffers sooner, gaining implicit priority — with no
//! per-class configuration.
//!
//! ```text
//! cargo run --release --example multi_rate_streaming
//! ```

use tokenflow::prelude::*;

fn main() {
    let workload = Workload::new(
        (0..30)
            .map(|i| RequestSpec {
                id: RequestId(0),
                arrival: SimTime::ZERO,
                prompt_tokens: 256,
                output_tokens: 900,
                rate: if i % 5 < 2 { 15.0 } else { 20.0 }, // 40% / 60% mix
            })
            .collect(),
    );

    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
        .with_max_batch(16)
        .with_timelines(30);
    let outcome = run_simulation(config, TokenFlowScheduler::new(), &workload);
    assert!(outcome.complete, "the burst must run to completion");
    assert_eq!(outcome.report.completed, 30);

    println!("mixed-rate burst of {} requests under TokenFlow\n", 30);
    for target in [15.0, 20.0] {
        let class: Vec<_> = outcome
            .records
            .iter()
            .filter(|r| r.rate == target)
            .collect();
        println!("class {target} tok/s ({} requests):", class.len());
        for r in &class {
            let (Some(first), Some(finished)) = (r.first_token_at, r.finished_at) else {
                continue;
            };
            // Delivery is floored by the reader's own pace; a healthy
            // stream delivers the whole response in ~output/rate seconds.
            let span = finished.saturating_since(first).as_secs_f64();
            let ideal = r.generated as f64 / r.rate;
            if r.id.0 < 3 || r.id.0 % 10 == 0 {
                println!(
                    "  {}: ttft {:.2}s, stream window {:.1}s (ideal {:.1}s), stalls {:.2}s",
                    r.id,
                    r.ttft().map_or(0.0, |d| d.as_secs_f64()),
                    span,
                    ideal,
                    r.rebuffer.as_secs_f64(),
                );
            }
        }
        let mean_stall: f64 =
            class.iter().map(|r| r.rebuffer.as_secs_f64()).sum::<f64>() / class.len() as f64;
        println!("  class mean rebuffering: {mean_stall:.2} s\n");
    }
    println!(
        "overall: eff {:.1} tok/s, {} preemption cycles sustained both classes",
        outcome.report.effective_throughput, outcome.report.preemptions
    );
}
