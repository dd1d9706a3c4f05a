//! The independent correctness oracle, run outside the timed region.
//!
//! It never trusts the certifier: a result tagged certified is replayed
//! through fault injection (`ftes_sim`) and its deadlines are re-checked on
//! the shipped schedule. Any violation makes the result unsound.

use ftes::ftcpg::FtCpg;
use ftes::model::{Application, Transparency};
use ftes::sched::{check_deadlines, ConditionalSchedule};
use ftes::sim::{verify_exhaustive, verify_sampled, SimError};

/// Scenario count up to which the replay is exhaustive.
const SCENARIO_LIMIT: usize = 2_000;
/// Random scenarios replayed (plus the fault-free one) beyond that limit.
const SAMPLES: usize = 256;
/// Scenario-sampling seed of the fallback replay.
const SAMPLE_SEED: u64 = 0x0ac1e;

/// Running tally of oracle replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct Oracle {
    /// Results replayed over every fault scenario.
    pub exhaustive: u64,
    /// Results replayed over sampled scenarios (too many to enumerate).
    pub sampled: u64,
    /// Results the replay or the deadline re-check found unsound.
    pub unsound: u64,
}

impl Oracle {
    /// Replays one certified result; `false` when it is unsound or the
    /// replay itself failed.
    pub fn check(
        &mut self,
        app: &Application,
        cpg: &FtCpg,
        schedule: &ConditionalSchedule,
        transparency: &Transparency,
    ) -> bool {
        let replay = match verify_exhaustive(app, cpg, schedule, transparency, SCENARIO_LIMIT) {
            Err(SimError::TooManyScenarios(_)) => {
                self.sampled += 1;
                verify_sampled(app, cpg, schedule, transparency, SAMPLES, SAMPLE_SEED)
            }
            other => {
                self.exhaustive += 1;
                other
            }
        };
        let sound = replay.is_ok_and(|v| v.is_sound() && v.worst_makespan <= app.deadline())
            && check_deadlines(app, cpg, schedule).is_empty();
        if !sound {
            self.unsound += 1;
        }
        sound
    }

    /// Results replayed so far.
    pub fn checked(&self) -> u64 {
        self.exhaustive + self.sampled
    }
}
