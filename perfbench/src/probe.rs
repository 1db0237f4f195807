//! A timestamping trace sink, and the phase split it gives.
//!
//! [`Probe`] is installed through `parqp::trace::install` like any
//! other sink. It stamps the three events that bound phases — a span
//! opening, a span closing, and a round's `RoundEnd` — with
//! `parqp_testkit::bench::time_ns`, and ignores the rest. [`attribute`]
//! then tiles one operation's wall time:
//!
//! * **plan** — the clock readings around `planner::plan`;
//! * **exchange** — time inside a span that ends at a `RoundEnd`
//!   (partition and routing up to the round's close);
//! * **local** — time inside a span that ends anywhere else (local
//!   kernels after the round closed, freeing inboxes);
//! * **unattributed** — time while no span is open (scatter, output
//!   reordering, and every strategy that opens no span: GYM,
//!   aggregation, serving).

use parqp::trace::{TraceEvent, TraceSink};
use parqp_testkit::bench::time_ns;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Open,
    Close,
    RoundEnd,
}

/// Records when phase-bounding events happened.
#[derive(Debug, Default)]
pub struct Probe {
    marks: Vec<(u64, Mark)>,
}

impl Probe {
    /// Forget the previous operation's marks.
    pub fn clear(&mut self) {
        self.marks.clear();
    }
}

impl TraceSink for Probe {
    fn record(&mut self, event: TraceEvent) {
        let mark = match event {
            TraceEvent::SpanBegin { .. } => Mark::Open,
            TraceEvent::SpanEnd { .. } => Mark::Close,
            TraceEvent::RoundEnd { .. } => Mark::RoundEnd,
            _ => return,
        };
        self.marks.push((time_ns(), mark));
    }
}

/// One operation's wall time, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub plan_ns: u64,
    pub exchange_ns: u64,
    pub local_ns: u64,
    pub unattributed_ns: u64,
}

impl Phases {
    pub fn total_ns(&self) -> u64 {
        self.plan_ns + self.exchange_ns + self.local_ns + self.unattributed_ns
    }
}

/// Split the operation timed from `begin` to `end` into phases.
///
/// Fails unless the phases tile `end - begin` exactly: every mark lies
/// inside the operation, spans nest and all close, and planning ran
/// while no span was open.
pub fn attribute(
    probe: &Probe,
    begin: u64,
    end: u64,
    plan: Option<(u64, u64)>,
) -> Result<Phases, String> {
    let mut phases = Phases::default();
    let mut depth = 0usize;
    let mut at = begin;
    for &(stamp, mark) in &probe.marks {
        if stamp < at || stamp > end {
            return Err(format!("trace mark at {stamp} ns outside [{at}, {end}]"));
        }
        let segment = stamp - at;
        if depth == 0 {
            phases.unattributed_ns += segment;
        } else if mark == Mark::RoundEnd {
            phases.exchange_ns += segment;
        } else {
            phases.local_ns += segment;
        }
        match mark {
            Mark::Open => depth += 1,
            Mark::Close => {
                depth = depth
                    .checked_sub(1)
                    .ok_or("a span closed that never opened")?;
            }
            Mark::RoundEnd => {}
        }
        at = stamp;
    }
    if depth != 0 {
        return Err(format!("{depth} span(s) still open at the end"));
    }
    phases.unattributed_ns += end - at;
    if let Some((plan_begin, plan_end)) = plan {
        let marked = probe
            .marks
            .iter()
            .any(|&(stamp, _)| stamp > plan_begin && stamp < plan_end);
        let open_spans: i64 = probe
            .marks
            .iter()
            .filter(|&&(stamp, _)| stamp <= plan_begin)
            .map(|&(_, mark)| match mark {
                Mark::Open => 1,
                Mark::Close => -1,
                Mark::RoundEnd => 0,
            })
            .sum();
        if plan_begin < begin
            || plan_end > end
            || plan_end < plan_begin
            || marked
            || open_spans != 0
        {
            return Err("planning overlaps a traced phase".into());
        }
        phases.plan_ns = plan_end - plan_begin;
        phases.unattributed_ns -= phases.plan_ns;
    }
    debug_assert_eq!(phases.total_ns(), end - begin);
    Ok(phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(marks: &[(u64, Mark)]) -> Probe {
        Probe {
            marks: marks.to_vec(),
        }
    }

    #[test]
    fn partition_round_then_local() {
        // scatter 0–10, span 10–90 with its round closing at 40.
        let p = probe(&[(10, Mark::Open), (40, Mark::RoundEnd), (90, Mark::Close)]);
        let ph = attribute(&p, 0, 100, None).unwrap();
        assert_eq!(ph.unattributed_ns, 20);
        assert_eq!(ph.exchange_ns, 30);
        assert_eq!(ph.local_ns, 50);
        assert_eq!(ph.total_ns(), 100);
    }

    #[test]
    fn plan_is_carved_out_of_unattributed_time() {
        let p = probe(&[(30, Mark::Open), (50, Mark::RoundEnd), (60, Mark::Close)]);
        let ph = attribute(&p, 0, 70, Some((2, 25))).unwrap();
        assert_eq!(ph.plan_ns, 23);
        assert_eq!(ph.unattributed_ns, 30 - 23 + 10);
        assert_eq!(ph.total_ns(), 70);
    }

    #[test]
    fn rounds_outside_spans_stay_unattributed() {
        let p = probe(&[(20, Mark::RoundEnd), (45, Mark::RoundEnd)]);
        let ph = attribute(&p, 0, 50, None).unwrap();
        assert_eq!(ph.unattributed_ns, 50);
    }

    #[test]
    fn broken_nesting_fails_the_tiling() {
        assert!(attribute(&probe(&[(5, Mark::Open)]), 0, 10, None).is_err());
        assert!(attribute(&probe(&[(5, Mark::Close)]), 0, 10, None).is_err());
        assert!(attribute(&probe(&[(15, Mark::Open)]), 0, 10, None).is_err());
        let p = probe(&[(5, Mark::Open), (8, Mark::Close)]);
        assert!(attribute(&p, 0, 10, Some((4, 6))).is_err());
    }
}
