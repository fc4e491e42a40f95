//! Quickstart: the front door is a declarative scenario — one JSON spec
//! describing the whole serving stack, built and run in two calls.
//!
//! The same spec works from the command line:
//!
//! ```text
//! cargo run --release --example quickstart
//! tokenflow run scenarios/quickstart_single.json
//! ```

use tokenflow::scenario::{parse_scenario, Variants};

fn main() {
    // An H200 serving Llama3-8B with the TokenFlow scheduler; three
    // clients with different reading speeds submit prompts at t = 0.
    let spec = parse_scenario(
        r#"{
            "name": "quickstart",
            "model": "Llama3-8B",
            "hardware": "H200",
            "scheduler": "tokenflow",
            "workload": {
                "type": "inline",
                "requests": [
                    {"arrival_secs": 0, "prompt_tokens": 512, "output_tokens": 200, "rate": 20},
                    {"arrival_secs": 0, "prompt_tokens": 256, "output_tokens": 150, "rate": 12},
                    {"arrival_secs": 0, "prompt_tokens": 128, "output_tokens": 100, "rate": 6}
                ]
            },
            "topology": "single"
        }"#,
    )
    .expect("valid scenario");

    // `build()` assembles the exact stack a hand-written main would
    // (engine config, scheduler, workload); `run()` drives it to a report.
    let harness = spec.build().expect("buildable scenario");
    println!(
        "serving {} requests on {} ({} topology)\n",
        harness.workload.len(),
        harness.config.hardware.name,
        harness.topology.type_name(),
    );
    let outcome = harness.run();

    let report = &outcome.report;
    println!("--- run report ---");
    println!("requests completed : {}", report.completed);
    println!("mean TTFT          : {:.3} s", report.ttft.mean);
    println!("throughput         : {:.1} tok/s", report.throughput);
    println!(
        "effective thpt     : {:.1} tok/s",
        report.effective_throughput
    );
    println!("QoS (Eq. 2)        : {:.1}", report.qos);
    println!(
        "rebuffering        : {:.2} s across {} stalls",
        report.total_rebuffer_secs, report.stall_events
    );
    println!("report digest      : {:016x}", outcome.digest());

    // The full machine-readable report (what `tokenflow run` prints):
    println!("\n{}", outcome.to_json().emit_pretty());
}
