//! Benchmark workloads from the StrandWeaver evaluation (paper Table II).
//!
//! Each workload implements the [`Workload`] trait: it builds a recoverable
//! data structure on simulated PM, executes failure-atomic operations
//! through the `sw-lang` runtimes (producing both a formal execution for
//! crash testing and per-thread ISA traces for the timing simulator), and
//! checks its structural invariants on a post-recovery PM image.
//!
//! | Benchmark | Paper description |
//! |---|---|
//! | [`queue`] | insert/delete on a persistent queue (single lock) |
//! | [`hashmap`] | read/update on a persistent chained hash map |
//! | [`array_swap`] | swaps of array elements |
//! | [`rbtree`] | insert/delete on a persistent red-black tree |
//! | [`tpcc`] | TPC-C New-Order transactions |
//! | [`nstore`] | N-Store key-value store, YCSB-style load at three read/write mixes |
//!
//! The [`driver`] module interleaves the logical threads at region
//! granularity, runs coordinated batched commits for the SFR/ATLAS models,
//! and returns everything the crash harness and simulator need.
//!
//! # Example
//!
//! ```
//! use sw_lang::{HwDesign, LangModel};
//! use sw_workloads::driver::{drive, DriverParams};
//! use sw_workloads::BenchmarkId;
//!
//! let mut w = BenchmarkId::Queue.instantiate();
//! let params = DriverParams::new(HwDesign::StrandWeaver, LangModel::Txn)
//!     .threads(2)
//!     .total_regions(20);
//! let mut out = drive(w.as_mut(), &params);
//! // Orderly shutdown: flush everything, recover, check invariants.
//! out.ctx.mem_mut().persist_all();
//! let mut img = out.ctx.mem().persisted_image().clone();
//! sw_lang::recovery::recover(&mut img, &out.layout);
//! w.check(&img).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array_swap;
pub mod driver;
pub mod hashmap;
pub mod nstore;
pub mod queue;
pub mod rbtree;
pub mod tpcc;

use rand::rngs::SmallRng;
use sw_lang::{FuncCtx, ThreadRuntime};
use sw_pmem::PmImage;

/// A benchmark workload: persistent data structure + operation generator +
/// invariant checker.
pub trait Workload: std::fmt::Debug {
    /// Table II name.
    fn name(&self) -> &'static str;

    /// Allocates and initializes the persistent state. Called once, before
    /// the recorded phase (the driver persists everything afterwards).
    fn setup(&mut self, ctx: &mut FuncCtx);

    /// Executes one failure-atomic region containing `ops` logical
    /// operations on thread `rt.tid()`.
    fn run_region(
        &mut self,
        ctx: &mut FuncCtx,
        rt: &mut ThreadRuntime,
        rng: &mut SmallRng,
        ops: usize,
    );

    /// Checks the workload's structural invariants against a (recovered)
    /// PM image.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn check(&self, img: &PmImage) -> Result<(), String>;

    /// Base addresses of every dynamically allocated heap block reachable
    /// from the workload's persistent roots in `img`. Recovery treats a
    /// live dynamic block outside this set as a leak from a
    /// crash-interrupted operation and reclaims it. Workloads that never
    /// call `heap_alloc` keep the default (no reachable dynamic blocks).
    fn heap_roots(&self, img: &PmImage) -> Vec<sw_pmem::Addr> {
        let _ = img;
        Vec::new()
    }
}

/// The eight benchmarks of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// Persistent queue (insert/delete; all threads share one lock).
    Queue,
    /// Persistent chained hash map (read/update).
    Hashmap,
    /// Array element swaps.
    ArraySwap,
    /// Persistent red-black tree (insert/delete).
    RbTree,
    /// TPC-C New-Order transactions.
    Tpcc,
    /// N-Store, read-heavy (90% reads / 10% writes).
    NStoreRd,
    /// N-Store, balanced (50/50).
    NStoreBal,
    /// N-Store, write-heavy (10% reads / 90% writes).
    NStoreWr,
}

impl BenchmarkId {
    /// All benchmarks, in Table II order.
    pub const ALL: [BenchmarkId; 8] = [
        BenchmarkId::Queue,
        BenchmarkId::Hashmap,
        BenchmarkId::ArraySwap,
        BenchmarkId::RbTree,
        BenchmarkId::Tpcc,
        BenchmarkId::NStoreRd,
        BenchmarkId::NStoreBal,
        BenchmarkId::NStoreWr,
    ];

    /// Table II label.
    pub fn label(self) -> &'static str {
        match self {
            BenchmarkId::Queue => "queue",
            BenchmarkId::Hashmap => "hashmap",
            BenchmarkId::ArraySwap => "array-swap",
            BenchmarkId::RbTree => "rb-tree",
            BenchmarkId::Tpcc => "tpcc",
            BenchmarkId::NStoreRd => "nstore-rd",
            BenchmarkId::NStoreBal => "nstore-bal",
            BenchmarkId::NStoreWr => "nstore-wr",
        }
    }

    /// Builds a fresh instance of the workload.
    pub fn instantiate(self) -> Box<dyn Workload> {
        match self {
            BenchmarkId::Queue => Box::new(queue::QueueWorkload::new()),
            BenchmarkId::Hashmap => Box::new(hashmap::HashmapWorkload::new()),
            BenchmarkId::ArraySwap => Box::new(array_swap::ArraySwapWorkload::new()),
            BenchmarkId::RbTree => Box::new(rbtree::RbTreeWorkload::new()),
            BenchmarkId::Tpcc => Box::new(tpcc::TpccWorkload::new()),
            BenchmarkId::NStoreRd => Box::new(nstore::NStoreWorkload::new(90)),
            BenchmarkId::NStoreBal => Box::new(nstore::NStoreWorkload::new(50)),
            BenchmarkId::NStoreWr => Box::new(nstore::NStoreWorkload::new(10)),
        }
    }

    /// As [`BenchmarkId::instantiate`], with allocator churn enabled:
    /// the hash map relocates nodes on update (alloc new + free old) and
    /// the n-store mixes stage writes through scratch blocks, so the
    /// run exercises `heap_alloc`/`heap_free` and crash recovery must
    /// reclaim in-flight blocks. `None` for structurally churn-free
    /// workloads.
    pub fn instantiate_churn(self) -> Option<Box<dyn Workload>> {
        match self {
            BenchmarkId::Hashmap => Some(Box::new(hashmap::HashmapWorkload::new().with_churn())),
            BenchmarkId::NStoreRd => Some(Box::new(nstore::NStoreWorkload::new(90).with_churn())),
            BenchmarkId::NStoreBal => Some(Box::new(nstore::NStoreWorkload::new(50).with_churn())),
            BenchmarkId::NStoreWr => Some(Box::new(nstore::NStoreWorkload::new(10).with_churn())),
            _ => None,
        }
    }
}

sw_trace::json_label!(BenchmarkId: "bench");

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
