//! Language-level persistency models as pluggable commit policies.
//!
//! Mirroring the simulator's `PersistEngine` extraction, every per-model
//! decision the runtime makes lives behind the [`CommitPolicy`] trait, with
//! one module per model: [`txn`], [`sfr`], [`atlas`], and the log-free
//! [`native`] extension. [`LangModel`] is the enum the rest of the stack
//! names models by; [`LangModel::policy`] is the single dispatch point.
//! Adding a model means one module here, one `ALL` slot, and nothing else —
//! the `ThreadRuntime` core, recovery, and the drivers are model-agnostic.

pub mod atlas;
pub mod native;
pub mod sfr;
pub mod txn;

use crate::log::EntryType;
use sw_model::HwDesign;

/// A language-level persistency model: the paper's three (Section VI-B,
/// "sensitivity to language-level persistency model") plus the log-free
/// eADR-native extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LangModel {
    /// Failure-atomic transactions (PMDK-style); eager commit at region end.
    Txn,
    /// Synchronization-free regions; batched commits, light sync logging.
    Sfr,
    /// ATLAS outermost critical sections; batched commits, heavier-weight
    /// happens-before bookkeeping per lock operation.
    Atlas,
    /// Log-free runtime for eADR-class hardware: stores persist at
    /// visibility, so regions need no log entries — only the lock-word
    /// protocol. Legal only on designs where
    /// [`HwDesign::persists_at_visibility`] holds.
    Native,
}

impl LangModel {
    /// All models, in presentation order (the paper's three, then the
    /// log-free extension).
    pub const ALL: [LangModel; 4] = [
        LangModel::Txn,
        LangModel::Sfr,
        LangModel::Atlas,
        LangModel::Native,
    ];

    /// The policy module implementing this model — the one place the enum
    /// is dispatched on.
    pub fn policy(self) -> &'static dyn CommitPolicy {
        match self {
            LangModel::Txn => &txn::Txn,
            LangModel::Sfr => &sfr::Sfr,
            LangModel::Atlas => &atlas::Atlas,
            LangModel::Native => &native::Native,
        }
    }

    /// Short label used in benchmark tables and `swctl --lang`.
    pub fn label(self) -> &'static str {
        self.policy().label()
    }

    /// `true` when the model may run on `design` (log-free models require
    /// persist-at-visibility hardware).
    pub fn legal_on(self, design: HwDesign) -> bool {
        self.policy().legal_on(design)
    }

    /// `true` for models that batch commits and rely on a cross-thread
    /// [`coordinated_commit`](crate::coordinated_commit) on shared data.
    pub fn batches_commits(self) -> bool {
        self.policy().batches_commits()
    }

    /// The crash-consistency contract this model gives its programs.
    pub fn consistency(self) -> Consistency {
        self.policy().consistency()
    }
}

sw_trace::json_label!(LangModel: "lang");

impl std::fmt::Display for LangModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a model's recovered image is checked against after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Recovered image equals the baseline plus a replay of exactly the
    /// committed regions: failure atomicity plus commit durability (the
    /// logged models).
    ReplayCommitted,
    /// Recovered image equals the baseline plus some prefix of the run's
    /// stores in execution order: strict persistency with no rollback (the
    /// log-free model — regions are *not* failure-atomic).
    DurablePrefix,
}

/// Everything the region lifecycle asks of a language-level model. One
/// implementation per model, under this module; the `ThreadRuntime` core
/// consults the policy and never matches on [`LangModel`] itself.
pub trait CommitPolicy: std::fmt::Debug + Sync {
    /// Short label used in benchmark tables and `swctl --lang`.
    fn label(&self) -> &'static str;

    /// Cycles of bookkeeping work per synchronization operation (modelled
    /// as `Compute`): ATLAS's lock-graph maintenance is the heaviest, SFR's
    /// acquire/release logging lighter, TXN's begin/end lightest.
    fn sync_cost(&self) -> u32;

    /// Whether the runtime keeps a write-ahead log at all. Log-free models
    /// return `false` and skip every log append, flush, and commit.
    fn uses_log(&self) -> bool {
        true
    }

    /// Log entry appended when a region begins (`None`: no entry — the
    /// lock word is still stamped).
    fn begin_entry(&self) -> Option<EntryType>;

    /// Log entry appended when a region ends.
    fn end_entry(&self) -> Option<EntryType>;

    /// Whether the undo log should commit as this region ends.
    /// `region_had_stores` is the eager models' trigger; `live`/`threshold`
    /// drive the batched ones.
    fn commit_at_region_end(&self, region_had_stores: bool, live: u64, threshold: u64) -> bool;

    /// `true` when the batched log has grown past `threshold` and the
    /// driver should coordinate a commit across threads.
    fn needs_commit(&self, live: u64, threshold: u64) -> bool {
        let _ = (live, threshold);
        false
    }

    /// `true` for models that batch commits (and therefore need the
    /// coordinated-commit protocol on shared data).
    fn batches_commits(&self) -> bool {
        false
    }

    /// Designs this model may legally run on. Defaults to all; log-free
    /// models require persist-at-visibility hardware.
    fn legal_on(&self, design: HwDesign) -> bool {
        let _ = design;
        true
    }

    /// The crash-consistency contract this model gives its programs.
    fn consistency(&self) -> Consistency {
        Consistency::ReplayCommitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_trace::json::from_label;

    #[test]
    fn labels_are_distinct_and_resolvable() {
        let labels: std::collections::HashSet<_> =
            LangModel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), LangModel::ALL.len());
        for l in LangModel::ALL {
            assert_eq!(from_label(l.label()), Some(l));
        }
        assert_eq!(from_label::<LangModel>("pmdk"), None);
    }

    #[test]
    fn only_native_restricts_designs() {
        for l in LangModel::ALL {
            for d in HwDesign::ALL {
                let legal = l.legal_on(d);
                if l == LangModel::Native {
                    assert_eq!(legal, d.persists_at_visibility(), "{l} on {d}");
                } else {
                    assert!(legal, "{l} must run on every design");
                }
            }
        }
        assert!(LangModel::Native.legal_on(HwDesign::Eadr));
        assert!(!LangModel::Native.legal_on(HwDesign::IntelX86));
    }

    #[test]
    fn batched_models_are_exactly_sfr_and_atlas() {
        let batched: Vec<LangModel> = LangModel::ALL
            .into_iter()
            .filter(|l| l.batches_commits())
            .collect();
        assert_eq!(batched, vec![LangModel::Sfr, LangModel::Atlas]);
    }

    #[test]
    fn only_native_is_log_free_with_prefix_consistency() {
        for l in LangModel::ALL {
            let p = l.policy();
            if l == LangModel::Native {
                assert!(!p.uses_log());
                assert_eq!(p.consistency(), Consistency::DurablePrefix);
                assert_eq!(p.begin_entry(), None);
                assert_eq!(p.end_entry(), None);
            } else {
                assert!(p.uses_log());
                assert_eq!(p.consistency(), Consistency::ReplayCommitted);
                assert!(p.begin_entry().is_some());
                assert!(p.end_entry().is_some());
            }
        }
    }

    #[test]
    fn sync_costs_rank_as_documented() {
        let cost = |l: LangModel| l.policy().sync_cost();
        assert!(cost(LangModel::Atlas) > cost(LangModel::Sfr));
        assert!(cost(LangModel::Sfr) > cost(LangModel::Txn));
        assert_eq!(
            cost(LangModel::Native),
            cost(LangModel::Txn),
            "Native keeps TXN's lock bookkeeping so the delta to TXN-on-eADR \
             is purely the log"
        );
    }
}
