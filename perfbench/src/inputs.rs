//! Inputs generated from the run's seed: raw training logs and fresh,
//! pre-encoded per-session event streams.

use leaps::etw::logfmt::write_log;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::serve::Command;
use leaps::trace::parser::parse_log;
use leaps::trace::partition::{partition_events, PartitionedEvent};
use std::path::{Path, PathBuf};

/// SplitMix64 step: derives independent sub-seeds from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn scenario(name: &str) -> Scenario {
    Scenario::by_name(name).unwrap_or_else(|| panic!("unknown scenario {name}"))
}

/// Parses and stack-partitions a raw log, as `leaps` does on load.
pub fn partition(raw: &str) -> Vec<PartitionedEvent> {
    let log = parse_log(raw).expect("generated logs parse");
    partition_events(&log.events)
}

/// The files one `leaps train` invocation reads, plus the held-out data
/// that scores the trained model.
pub struct TrainingLogs {
    pub benign_path: PathBuf,
    pub mixed_path: PathBuf,
    /// Events per file, benign then mixed.
    pub events: (usize, usize),
    /// The benign half not trained on.
    pub held_out_raw: String,
    pub malicious_raw: String,
}

/// Generates a scenario's logs and writes the training files into
/// `dir`: the first `benign_train` benign events and the whole mixed
/// log. The remaining benign events and the malicious log are held out.
pub fn write_training_logs(
    scenario: &Scenario,
    params: &GenParams,
    benign_train: usize,
    seed: u64,
    dir: &Path,
) -> std::io::Result<TrainingLogs> {
    let logs = scenario.generate_events(params, seed);
    let split = benign_train.min(logs.benign.len());
    let benign_path = dir.join("benign-train.log");
    let mixed_path = dir.join("mixed.log");
    std::fs::write(&benign_path, write_log(&logs.benign[..split]))?;
    std::fs::write(&mixed_path, write_log(&logs.mixed))?;
    Ok(TrainingLogs {
        benign_path,
        mixed_path,
        events: (split, logs.mixed.len()),
        held_out_raw: write_log(&logs.benign[split..]),
        malicious_raw: write_log(&logs.malicious),
    })
}

/// One session's stream: the wire lines of its events, in order, stored
/// back to back so a run of consecutive events is one slice.
pub struct Stream {
    pub pid: u32,
    /// `EVENT pid=<pid> <body>\n` lines, encoded before any timing starts.
    text: String,
    /// End offset of each line in `text`.
    ends: Vec<usize>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Lines `range` of the stream, newlines included.
    pub fn lines(&self, range: std::ops::Range<usize>) -> &str {
        let start = if range.start == 0 { 0 } else { self.ends[range.start - 1] };
        let end = if range.end == 0 { 0 } else { self.ends[range.end - 1] };
        &self.text[start..end]
    }

    /// The event body of line `k` (without the `EVENT pid=<pid> ` prefix
    /// and the newline), as the daemon decodes it.
    pub fn body(&self, k: usize) -> &str {
        let line = self.lines(k..k + 1).trim_end();
        line.splitn(3, ' ').nth(2).expect("EVENT lines have a body")
    }
}

/// Process id of session 0; session `i` streams as `FIRST_PID + i`.
pub const FIRST_PID: u32 = 100;

/// Events generated per run of the scenario: a stream is a sequence of
/// such independent runs. How costly a run's events are to score varies
/// from run to run, so short runs make every measured window mix many of
/// them, and a workload's figures vary less with the seed.
const CHUNK: usize = 1000;

/// A fresh infected-process stream of `events` events for session
/// `index`: mixed logs of the scenario, each generated from its own seed
/// and renumbered to continue the stream, so no two sessions, and no two
/// stretches of one session, replay the same records.
pub fn session_stream(scenario: &Scenario, events: usize, seed: u64, index: u32) -> Stream {
    let pid = FIRST_PID + index;
    let session_seed = derive_seed(seed, 1000 + u64::from(index));
    let mut text = String::new();
    let mut ends = Vec::with_capacity(events);
    for chunk in 0..events.div_ceil(CHUNK) {
        let params = GenParams {
            benign_events: 20,
            mixed_events: CHUNK.min(events - ends.len()),
            malicious_events: 10,
            benign_ratio: 0.5,
        };
        let raw = scenario.generate(&params, derive_seed(session_seed, chunk as u64));
        let offset = ends.len() as u64;
        for (k, mut event) in partition(&raw.mixed).into_iter().enumerate() {
            assert_eq!(event.num, k as u64 + 1, "generated logs are numbered from 1");
            event.num += offset;
            text.push_str(&Command::Event { pid, event }.to_line());
            text.push('\n');
            ends.push(text.len());
        }
    }
    Stream { pid, text, ends }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat_per_seed() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }

    #[test]
    fn session_streams_are_fresh_and_decodable() {
        let s = scenario("putty_reverse_tcp_online");
        let a = session_stream(&s, 200, 5, 0);
        let b = session_stream(&s, 200, 5, 1);
        assert_eq!(a.len(), 200);
        assert_ne!(a.body(0), b.body(0));
        let event = leaps::serve::proto::decode_event(a.body(3)).unwrap();
        assert_eq!(event.num, 4);
        assert!(a.lines(3..4).starts_with("EVENT pid=100 num=4 "));
        assert_eq!(a.lines(3..5).lines().count(), 2);
        assert_eq!(a.lines(0..0), "");
        let again = session_stream(&s, 200, 5, 0);
        assert_eq!(a.lines(0..200), again.lines(0..200));
    }

    #[test]
    fn long_streams_continue_across_chunks() {
        let s = scenario("notepad++_codeinject");
        let stream = session_stream(&s, CHUNK + 5, 9, 2);
        assert_eq!(stream.len(), CHUNK + 5);
        for k in [0, CHUNK - 1, CHUNK, CHUNK + 4] {
            let event = leaps::serve::proto::decode_event(stream.body(k)).unwrap();
            assert_eq!(event.num, k as u64 + 1);
        }
        let content = |k| stream.body(k).split_once(' ').map(|(_, rest)| rest.to_owned());
        assert_ne!(content(0), content(CHUNK));
    }
}
