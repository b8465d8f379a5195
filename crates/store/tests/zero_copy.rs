//! The zero-copy claim, enforced by a counting allocator: an `mmap` load
//! of a Table II-sized model performs **zero** weight-sized heap
//! allocations, while the buffered and text paths (by design) do not.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{synthetic, temp_path};
use targad_core::{snapshot as text_snapshot, EnginePrecision, Runtime, ThresholdCache};
use targad_linalg::rng as lrng;
use targad_store::{load_with, mmap_supported, save, LoadMode};

/// Counts allocations at least as large as one weight-matrix row of the
/// test model — small bookkeeping (Vecs of handles, path buffers) passes
/// free, any weight-bytes copy is caught.
const WEIGHT_SIZED: usize = 4096;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= WEIGHT_SIZED {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= WEIGHT_SIZED {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn large_allocs_during(f: impl FnOnce()) -> usize {
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    f();
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

/// One test function: the counter is process-global, so the comparisons
/// must not run concurrently with each other.
#[test]
fn mmap_load_makes_zero_weight_allocations() {
    // A Table II-sized network: every weight matrix is tens of KiB, far
    // above the counting threshold.
    let dims = [64, 128, 64, 8];
    let clf = synthetic(&dims, 3, 70);
    let cache = ThresholdCache::complete(0.5, -1.0, 0.001);

    let v3 = temp_path("zero_copy_v3");
    let v2 = temp_path("zero_copy_v2");
    save(&clf, &cache, EnginePrecision::F64, &v3).expect("save v3");
    text_snapshot::save_with_thresholds(&clf, &cache, &v2).expect("save v2");

    let x = lrng::normal_matrix(&mut lrng::seeded(3), 16, dims[0], 0.0, 1.0);
    let reference = clf.target_scores_rt(&x, &Runtime::serial());

    // The buffered path allocates the file buffer (as designed).
    let mut loaded = None;
    let buffered = large_allocs_during(|| {
        loaded = Some(load_with(&v3, LoadMode::Buffered).expect("buffered load"));
    });
    assert!(buffered >= 1, "buffered path should read into a buffer");
    assert_eq!(
        loaded
            .take()
            .unwrap()
            .classifier
            .target_scores_rt(&x, &Runtime::serial()),
        reference
    );

    // The text path re-parses and re-allocates every weight.
    let text_allocs = large_allocs_during(|| {
        let (c, _) = text_snapshot::load_with_thresholds(&v2).expect("text load");
        loaded = Some(targad_store::LoadedModel {
            classifier: c,
            thresholds: cache,
            precision: EnginePrecision::F64,
        });
    });
    assert!(text_allocs >= 1, "text path allocates weights");
    assert_eq!(
        loaded
            .take()
            .unwrap()
            .classifier
            .target_scores_rt(&x, &Runtime::serial()),
        reference
    );

    // The mmap path: zero weight-sized allocations, bit-identical scores.
    if !mmap_supported() {
        return;
    }
    let mapped_allocs = large_allocs_during(|| {
        loaded = Some(load_with(&v3, LoadMode::Mmap).expect("mmap load"));
    });
    assert_eq!(
        mapped_allocs, 0,
        "mmap load must not copy weight bytes onto the heap"
    );
    let mapped = loaded.take().unwrap();
    assert!(mapped.classifier.has_borrowed_parameters());
    assert_eq!(mapped.classifier.parameter_bytes(), 0);
    assert_eq!(
        mapped.classifier.target_scores_rt(&x, &Runtime::serial()),
        reference
    );

    let _ = std::fs::remove_file(&v3);
    let _ = std::fs::remove_file(&v2);
}
