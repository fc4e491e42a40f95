//! Property tests: the token buffer's conservation and stall accounting
//! hold for arbitrary delivery patterns.

use proptest::prelude::*;
use tokenflow_client::TokenBuffer;
use tokenflow_sim::SimTime;

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn conservation_and_monotonicity(
        rate in 0.5f64..200.0,
        deliveries in prop::collection::vec((0u64..60_000, 1u64..8), 1..60),
    ) {
        let mut buf = TokenBuffer::new(rate);
        let mut deliveries = deliveries;
        deliveries.sort_by_key(|&(t, _)| t);
        let mut delivered = 0u64;
        let mut last_consumed = 0u64;
        let mut last_rebuffer = 0.0f64;
        for (ms, n) in deliveries {
            let t = SimTime::from_millis(ms);
            buf.on_tokens(t, n);
            delivered += n;
            let snap = buf.snapshot(t);
            // Conservation: delivered = consumed + buffered.
            prop_assert_eq!(snap.delivered, delivered);
            prop_assert_eq!(snap.consumed + snap.buffered, delivered);
            // Monotone consumption and rebuffering.
            prop_assert!(snap.consumed >= last_consumed);
            prop_assert!(snap.rebuffer.as_secs_f64() + 1e-12 >= last_rebuffer);
            last_consumed = snap.consumed;
            last_rebuffer = snap.rebuffer.as_secs_f64();
        }
        // Far in the future everything has been consumed.
        let end = SimTime::from_secs(1_000_000);
        let snap = buf.snapshot(end);
        prop_assert_eq!(snap.consumed, delivered);
        prop_assert_eq!(snap.buffered, 0);
    }

    #[test]
    fn steady_supply_never_stalls(rate in 1.0f64..100.0, n in 10u64..300) {
        // Deliver faster than consumption: no stall may ever be charged.
        let mut buf = TokenBuffer::new(rate);
        let interval_us = (1e6 / rate / 2.0) as u64; // 2× the read rate
        for i in 0..n {
            buf.on_token(SimTime::from_micros(i * interval_us.max(1)));
        }
        let end = SimTime::from_micros(n * interval_us.max(1));
        prop_assert_eq!(buf.snapshot(end).stall_events, 0);
        prop_assert_eq!(buf.snapshot(end).rebuffer, tokenflow_sim::SimDuration::ZERO);
    }

    #[test]
    fn rebuffer_matches_supply_gap(gap_ms in 100u64..60_000) {
        // One token at t=0, the next after a known gap: the stall equals
        // the gap minus one read interval.
        let rate = 10.0;
        let mut buf = TokenBuffer::new(rate);
        buf.on_token(SimTime::ZERO);
        let arrival = SimTime::from_millis(gap_ms);
        buf.on_token(arrival);
        let expected_stall_ms = gap_ms.saturating_sub(100); // read due at 100 ms
        let measured = buf.snapshot(arrival).rebuffer.as_micros() / 1_000;
        prop_assert_eq!(measured, expected_stall_ms);
    }
}
