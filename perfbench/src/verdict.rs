//! What a pass's output checks found, and the deterministic counts the
//! orchestrator compares across passes.

use strandweaver::trace::Json;

/// Output checks, the work the pass did and its deterministic counts.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Checks run.
    pub run: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Work units the pass completed (the numerator of `work_per_s`).
    pub work: u64,
    /// Counts that must repeat exactly on every pass at one seed.
    pub counts: Vec<(String, u64)>,
}

impl Verdict {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a deterministic count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Checks passed divided by checks run (the orchestrator computes the
    /// reported ratio over every pass).
    #[cfg(test)]
    pub fn pass_ratio(&self) -> f64 {
        if self.run == 0 {
            0.0
        } else {
            (self.run - self.failures.len() as u64) as f64 / self.run as f64
        }
    }

    /// The verdict as the JSON the orchestrator reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("checks_run", Json::U64(self.run)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("work", Json::U64(self.work)),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_drops_with_a_failed_check() {
        let mut v = Verdict::default();
        v.check(true, || "a".into());
        assert_eq!(v.pass_ratio(), 1.0);
        v.check(false, || "b".into());
        assert_eq!(v.pass_ratio(), 0.5);
        assert_eq!(v.failures, vec!["b".to_string()]);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
