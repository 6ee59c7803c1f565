//! Everything the program is fed, generated from `--seed` and nothing
//! else: the synthetic submit mix, the deep batch, the Judgegirl trace,
//! the pre-encoded wire payloads, and the open-loop burst schedule.

use dvfs_model::{Task, TaskClass};
use dvfs_serve::protocol::encode_submit;
use dvfs_serve::SubmitItem;
use dvfs_workloads::JudgeTraceConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Share of `Interactive` tasks in the synthetic mix; the rest are
/// `NonInteractive`.
const INTERACTIVE_SHARE: f64 = 0.3;
/// Cycle range of a synthetic task (about 0.3-3 ms of one i7-950 core).
const CYCLES: std::ops::RangeInclusive<u64> = 1_000_000..=5_000_000;

/// `n` auto-id submits in the 30/70 class mix, arrival left to the
/// server (paced mode stamps "now").
pub fn synthetic_mix(seed: u64, n: usize) -> Vec<SubmitItem> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| SubmitItem {
            id: None,
            cycles: rng.gen_range(CYCLES),
            class: if rng.gen_bool(INTERACTIVE_SHARE) {
                TaskClass::Interactive
            } else {
                TaskClass::NonInteractive
            },
            arrival: None,
        })
        .collect()
}

/// `n` auto-id `NonInteractive` submits that all arrive at time zero:
/// the whole batch is resident in the ledger before the first dispatch.
pub fn deep_batch(seed: u64, n: usize) -> Vec<SubmitItem> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| SubmitItem {
            id: None,
            cycles: rng.gen_range(CYCLES),
            class: TaskClass::NonInteractive,
            arrival: Some(0.0),
        })
        .collect()
}

/// The tasks a replay server builds from `items` when they are
/// submitted in order into a fresh round (auto ids count from zero).
pub fn as_replay_tasks(items: &[SubmitItem]) -> Vec<Task> {
    items
        .iter()
        .zip(0u64..)
        .map(|(it, auto)| {
            Task::online(
                it.id.unwrap_or(auto),
                it.cycles,
                it.arrival.unwrap_or(0.0),
                None,
                it.class,
            )
            .expect("generated cycles are positive and arrivals finite")
        })
        .collect()
}

/// The paper's Judgegirl trace (768 submissions + 50 525 interactive
/// queries over half an hour), explicit ids and arrivals.
pub fn judge_trace(seed: u64) -> Vec<Task> {
    JudgeTraceConfig::paper(seed).generate()
}

pub fn task_as_item(t: &Task) -> SubmitItem {
    SubmitItem {
        id: Some(t.id.0),
        cycles: t.cycles,
        class: t.class,
        arrival: Some(t.arrival),
    }
}

pub fn submit_line(it: &SubmitItem) -> String {
    encode_submit(it.id, it.cycles, it.class, it.arrival)
}

/// Pre-encode `items` as wire payloads of `group` newline-terminated
/// submit lines each (the last payload may be shorter), so the timed
/// phase writes bytes and does no encoding of its own.
pub fn payloads(items: &[SubmitItem], group: usize) -> Vec<Vec<u8>> {
    items
        .chunks(group.max(1))
        .map(|chunk| {
            let mut bytes = Vec::with_capacity(chunk.len() * 64);
            for it in chunk {
                bytes.extend_from_slice(submit_line(it).as_bytes());
                bytes.push(b'\n');
            }
            bytes
        })
        .collect()
}

/// The open-loop schedule: burst `b` of `burst` submits is due at
/// `b * period_ns` after the phase starts, whatever happened to the
/// bursts before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSchedule {
    pub period_ns: u64,
    pub burst: usize,
    pub bursts: usize,
}

impl BurstSchedule {
    /// `rate_per_s` submits a second for `seconds`, one burst a
    /// millisecond.
    pub fn per_millisecond(rate_per_s: usize, seconds: f64) -> Self {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bursts = (seconds * 1e3).round().max(1.0) as usize;
        BurstSchedule {
            period_ns: 1_000_000,
            burst: (rate_per_s / 1000).max(1),
            bursts,
        }
    }

    pub fn total_submits(&self) -> usize {
        self.burst * self.bursts
    }

    pub fn due_ns(&self, burst_idx: usize) -> u64 {
        self.period_ns * burst_idx as u64
    }

    /// The responses to burst `burst_idx`, as a range over all
    /// responses in arrival order (one pipelined connection answers in
    /// request order).
    pub fn acks_of(&self, burst_idx: usize) -> std::ops::Range<usize> {
        burst_idx * self.burst..(burst_idx + 1) * self.burst
    }

    /// Which of `windows` equal slices of the phase a burst is due in.
    pub fn window_of(&self, burst_idx: usize, windows: usize) -> usize {
        (burst_idx * windows / self.bursts.max(1)).min(windows.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule_due_times_and_ack_mapping() {
        let s = BurstSchedule::per_millisecond(40_000, 15.0);
        assert_eq!(s.burst, 40);
        assert_eq!(s.bursts, 15_000);
        assert_eq!(s.total_submits(), 600_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(2_500), 2_500_000_000);
        // Acks 0..39 belong to burst 0, ack 40 opens burst 1.
        assert_eq!(s.acks_of(0), 0..40);
        assert_eq!(s.acks_of(1), 40..80);
        assert_eq!(s.acks_of(14_999).end, s.total_submits());
        // Five 3 s windows of 3000 bursts each.
        assert_eq!(s.window_of(0, 5), 0);
        assert_eq!(s.window_of(2_999, 5), 0);
        assert_eq!(s.window_of(3_000, 5), 1);
        assert_eq!(s.window_of(14_999, 5), 4);
    }

    #[test]
    fn same_seed_same_inputs_and_mix_is_about_30_70() {
        let a = synthetic_mix(9, 10_000);
        assert_eq!(a, synthetic_mix(9, 10_000));
        assert_ne!(a, synthetic_mix(10, 10_000));
        let interactive = a
            .iter()
            .filter(|i| i.class == TaskClass::Interactive)
            .count();
        assert!((2_700..=3_300).contains(&interactive), "{interactive}");
        assert!(a.iter().all(|i| CYCLES.contains(&i.cycles)));
        let bytes = payloads(&a[..130], 64);
        assert_eq!(bytes.len(), 3);
        assert_eq!(bytes[2].iter().filter(|&&b| b == b'\n').count(), 2);
    }
}
