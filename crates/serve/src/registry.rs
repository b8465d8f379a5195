//! The model registry: a multi-tenant store of fitted models behind
//! generation-counted `Arc` handles, fronted by a byte-budgeted LRU.
//!
//! One *pinned* default tenant preserves the single-model contract the
//! serve layer started with: [`ModelRegistry::current`] /
//! [`ModelRegistry::swap`] read and hot-swap it exactly as before. Named
//! tenants are admitted through [`ModelRegistry::load_tenant`] (or faulted
//! in from a `store_dir` of binary v3 snapshots on first use) and compete
//! for a byte budget: when admitting a model would push resident bytes
//! past [`ModelRegistry::budget_bytes`], least-recently-used tenants are
//! evicted until it fits. The invariant is **hard** — resident bytes never
//! exceed the budget, checked before every insert — and it is safe because
//! scoring paths resolve `(Arc<ModelSnapshot>, generation)` *at submit
//! time*: an in-flight batch owns its snapshot `Arc`, so eviction merely
//! drops the registry's reference and the batch finishes untorn on the
//! model it started with.
//!
//! Resident cost per tenant is the model's logical f64 weight bytes
//! (charged whether the weights live on the heap or borrow an `mmap`ed
//! v3 snapshot — either way the bytes are pinned while the tenant is
//! resident) plus its packed f32 plan when the registry scores in
//! [`EnginePrecision::F32`]. Plans are warmed at admit time, never on a
//! request. The `store.*` metrics in `targad-obs` expose hits, misses,
//! evictions, admit latency, and the resident-bytes gauge.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use targad_core::{Classifier, EnginePrecision, ThresholdCache};
use targad_obs::{labeled, metrics};

use crate::config::ServeError;

/// The reserved name of the pinned default tenant.
pub const DEFAULT_TENANT: &str = "default";

/// Tenant names accepted on the wire and as `store_dir` file stems:
/// 1–64 chars of `[A-Za-z0-9_-]`, so a tenant can never traverse paths
/// or smuggle separators into responses.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// One immutable, decision-ready model: the trained classifier plus the
/// §III-C thresholds calibrated for it. Snapshots carry everything a
/// request needs, so the score path does zero calibration work.
#[derive(Clone)]
pub struct ModelSnapshot {
    /// The trained `m + k`-way classifier.
    pub classifier: Classifier,
    /// Calibrated per-strategy thresholds (see
    /// [`targad_core::TargAd::calibrate_thresholds`]).
    pub thresholds: ThresholdCache,
    /// Operator-chosen label for this model version (surfaced by
    /// `/model`).
    pub tag: String,
}

impl ModelSnapshot {
    /// Bundles a classifier with its calibrated thresholds under `tag`.
    pub fn new(classifier: Classifier, thresholds: ThresholdCache, tag: impl Into<String>) -> Self {
        Self {
            classifier,
            thresholds,
            tag: tag.into(),
        }
    }

    /// The bytes this snapshot pins while resident: logical f64 weight
    /// bytes (owned heap or borrowed mapping alike) plus the packed f32
    /// plan if one has been warmed.
    pub fn resident_cost(&self) -> u64 {
        let dims = self.classifier.layer_dims();
        let weights: usize = dims
            .windows(2)
            .map(|pair| (pair[0] + 1) * pair[1] * std::mem::size_of::<f64>())
            .sum();
        (weights + self.classifier.f32_plan_bytes()) as u64
    }
}

/// A resident tenant's public card (the `/admin/tenants` row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantInfo {
    /// Tenant name (`default` for the pinned tenant).
    pub tenant: String,
    /// The resident model's operator tag.
    pub tag: String,
    /// Global install generation of the resident model.
    pub generation: u64,
    /// Bytes this tenant charges against the budget.
    pub bytes: u64,
}

struct TenantEntry {
    snapshot: Arc<ModelSnapshot>,
    generation: u64,
    bytes: u64,
    /// LRU clock value of the last resolve; updated under the *read*
    /// lock, so the hot path never serializes on the registry.
    last_used: AtomicU64,
}

struct Tenants {
    map: HashMap<String, TenantEntry>,
    resident_bytes: u64,
}

impl Tenants {
    fn set_gauge(&self) {
        metrics::STORE_RESIDENT_BYTES.set_always(self.resident_bytes);
    }
}

/// Publishes `bytes` on the per-tenant resident-bytes gauge, interning the
/// tenant label (admitted tenants are validated and budget-bounded, so
/// they are exactly the "active tenants" `/metrics` should enumerate).
fn set_tenant_bytes(name: &str, bytes: u64) {
    labeled::TENANT_RESIDENT_BYTES.set(labeled::tenants().intern(name), bytes);
}

/// Zeroes a tenant's resident-bytes gauge without interning: a tenant that
/// never scored or loaded should not claim a label slot on eviction.
fn clear_tenant_bytes(name: &str) {
    if let Some(id) = labeled::tenants().lookup(name) {
        labeled::TENANT_RESIDENT_BYTES.set(id, 0);
    }
}

/// Generation-counted multi-tenant model store with atomic hot-swap of the
/// pinned default tenant and byte-budgeted LRU admission for the rest.
pub struct ModelRegistry {
    tenants: RwLock<Tenants>,
    /// Global install counter: every admitted or swapped model gets the
    /// next generation, so generations are unique and monotone across
    /// tenants.
    installs: AtomicU64,
    /// LRU clock, bumped on every tenant resolve.
    clock: AtomicU64,
    precision: EnginePrecision,
    budget_bytes: u64,
    store_dir: Option<PathBuf>,
}

impl ModelRegistry {
    /// A registry serving `snapshot` as generation 1, scoring in f64, with
    /// no byte budget and no snapshot directory.
    pub fn new(snapshot: ModelSnapshot) -> Self {
        Self::with_precision(snapshot, EnginePrecision::F64)
    }

    /// A registry serving `snapshot` as generation 1 at `precision`.
    ///
    /// Under [`EnginePrecision::F32`] the snapshot's weights are cast and
    /// panel-packed for the SIMD kernels *here* — once per installed model,
    /// at insert and at every [`ModelRegistry::swap`] — so no request ever
    /// pays the cast.
    pub fn with_precision(snapshot: ModelSnapshot, precision: EnginePrecision) -> Self {
        Self::with_options(snapshot, precision, 0, None)
            .expect("an unbudgeted registry always admits its default model")
    }

    /// The fully general constructor: `budget_bytes = 0` means unlimited;
    /// `store_dir`, when set, is scanned for `<tenant>.tgsnp` binary v3
    /// snapshots to fault tenants in on first use.
    ///
    /// # Errors
    /// [`ServeError::BudgetExceeded`] when the pinned default model alone
    /// does not fit the budget — such a server could never score anything.
    pub fn with_options(
        snapshot: ModelSnapshot,
        precision: EnginePrecision,
        budget_bytes: u64,
        store_dir: Option<PathBuf>,
    ) -> Result<Self, ServeError> {
        if precision == EnginePrecision::F32 {
            snapshot.classifier.warm_f32();
        }
        let bytes = snapshot.resident_cost();
        if budget_bytes != 0 && bytes > budget_bytes {
            return Err(ServeError::BudgetExceeded {
                needed: bytes,
                budget: budget_bytes,
            });
        }
        let mut map = HashMap::new();
        map.insert(
            DEFAULT_TENANT.to_string(),
            TenantEntry {
                snapshot: Arc::new(snapshot),
                generation: 1,
                bytes,
                last_used: AtomicU64::new(0),
            },
        );
        let tenants = Tenants {
            map,
            resident_bytes: bytes,
        };
        tenants.set_gauge();
        set_tenant_bytes(DEFAULT_TENANT, bytes);
        metrics::SERVE_GENERATION.set_always(1);
        Ok(Self {
            tenants: RwLock::new(tenants),
            installs: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            precision,
            budget_bytes,
            store_dir,
        })
    }

    /// The precision every batch scored off this registry uses.
    pub fn precision(&self) -> EnginePrecision {
        self.precision
    }

    /// The byte budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently charged by resident tenants (including the pinned
    /// default). Never exceeds a non-zero [`ModelRegistry::budget_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .resident_bytes
    }

    /// The default tenant's snapshot and generation, read consistently:
    /// the pair is taken under one read lock, so a concurrent swap can
    /// never pair snapshot N with generation N+1.
    pub fn current(&self) -> (Arc<ModelSnapshot>, u64) {
        self.resolve(None)
            .expect("the default tenant is pinned and always resident")
    }

    /// The default tenant's generation (1-based, monotone under swaps).
    pub fn generation(&self) -> u64 {
        self.current().1
    }

    /// Resolves `tenant` (default when `None`) to its resident snapshot
    /// and generation, faulting it in from the snapshot directory on a
    /// miss. The returned `Arc` keeps the model alive across any later
    /// eviction — callers score untorn no matter what the LRU does.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] for an invalid tenant name,
    /// [`ServeError::UnknownTenant`] when the tenant is neither resident
    /// nor present in the snapshot directory, and
    /// [`ServeError::BudgetExceeded`] when faulting it in cannot fit the
    /// budget even after evicting every unpinned tenant.
    pub fn resolve(&self, tenant: Option<&str>) -> Result<(Arc<ModelSnapshot>, u64), ServeError> {
        let name = tenant.unwrap_or(DEFAULT_TENANT);
        if !valid_tenant_name(name) {
            return Err(ServeError::BadRequest(format!(
                "invalid tenant name `{}`",
                name.escape_default()
            )));
        }
        {
            let tenants = self.tenants.read().expect("registry lock poisoned");
            if let Some(entry) = tenants.map.get(name) {
                entry.last_used.store(self.tick(), Ordering::Release);
                if name != DEFAULT_TENANT {
                    metrics::STORE_CACHE_HITS.inc_always();
                }
                return Ok((Arc::clone(&entry.snapshot), entry.generation));
            }
        }
        metrics::STORE_CACHE_MISSES.inc_always();
        self.fault_in(name)
    }

    /// Loads `<store_dir>/<name>.tgsnp` and admits it, returning the
    /// snapshot it installed. Runs the disk load outside any lock; racing
    /// fault-ins of the same tenant each admit their own load (the later
    /// insert replaces the earlier), and each caller scores on the
    /// snapshot it installed — even if an eviction removes it again
    /// before this returns.
    fn fault_in(&self, name: &str) -> Result<(Arc<ModelSnapshot>, u64), ServeError> {
        let Some(dir) = &self.store_dir else {
            return Err(ServeError::UnknownTenant(name.to_string()));
        };
        let path = dir.join(format!("{name}.tgsnp"));
        if !path.is_file() {
            return Err(ServeError::UnknownTenant(name.to_string()));
        }
        let model = targad_store::load(&path)
            .map_err(|e| ServeError::Io(format!("tenant `{name}` snapshot: {e}")))?;
        let snapshot = ModelSnapshot::new(model.classifier, model.thresholds, name);
        self.admit(name, snapshot)
    }

    /// Admits `snapshot` as tenant `name`, evicting least-recently-used
    /// tenants as needed, and returns the installed generation. Replacing
    /// a resident tenant frees its bytes first. The f32 plan is warmed
    /// before any lock is taken.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] for an invalid name and
    /// [`ServeError::BudgetExceeded`] when the model cannot fit even with
    /// every unpinned tenant evicted.
    pub fn load_tenant(&self, name: &str, snapshot: ModelSnapshot) -> Result<u64, ServeError> {
        if !valid_tenant_name(name) {
            return Err(ServeError::BadRequest(format!(
                "invalid tenant name `{}`",
                name.escape_default()
            )));
        }
        if name == DEFAULT_TENANT {
            // Loading "default" is a hot-swap of the pinned tenant.
            return self.try_swap(snapshot);
        }
        self.admit(name, snapshot).map(|(_, generation)| generation)
    }

    /// Installs `snapshot` as tenant `name` and returns the installed
    /// `(snapshot, generation)` pair, taken under the same write lock as
    /// the insert.
    fn admit(
        &self,
        name: &str,
        snapshot: ModelSnapshot,
    ) -> Result<(Arc<ModelSnapshot>, u64), ServeError> {
        let started = Instant::now();
        if self.precision == EnginePrecision::F32 {
            snapshot.classifier.warm_f32();
        }
        let bytes = snapshot.resident_cost();
        let mut tenants = self.tenants.write().expect("registry lock poisoned");
        let freed = tenants.map.get(name).map_or(0, |e| e.bytes);
        self.make_room(&mut tenants, bytes, freed, name)?;
        let generation = self.installs.fetch_add(1, Ordering::AcqRel) + 1;
        let snapshot = Arc::new(snapshot);
        if let Some(old) = tenants.map.insert(
            name.to_string(),
            TenantEntry {
                snapshot: Arc::clone(&snapshot),
                generation,
                bytes,
                last_used: AtomicU64::new(self.tick()),
            },
        ) {
            tenants.resident_bytes -= old.bytes;
        }
        tenants.resident_bytes += bytes;
        tenants.set_gauge();
        set_tenant_bytes(name, bytes);
        metrics::STORE_ADMIT_NS.record_always(elapsed_ns(started));
        Ok((snapshot, generation))
    }

    /// Evicts unpinned tenants in LRU order until `bytes` fits beside
    /// everything remaining (with `freed` bytes of the entry being
    /// replaced, `keep`, already discounted). Does not modify the map at
    /// all on failure.
    fn make_room(
        &self,
        tenants: &mut Tenants,
        bytes: u64,
        freed: u64,
        keep: &str,
    ) -> Result<(), ServeError> {
        if self.budget_bytes == 0 {
            return Ok(());
        }
        let fits = |resident: u64| resident - freed + bytes <= self.budget_bytes;
        if fits(tenants.resident_bytes) {
            return Ok(());
        }
        // Unpinned victims, least recently used first.
        let mut victims: Vec<(String, u64, u64)> = tenants
            .map
            .iter()
            .filter(|(n, _)| n.as_str() != DEFAULT_TENANT && n.as_str() != keep)
            .map(|(n, e)| (n.clone(), e.last_used.load(Ordering::Acquire), e.bytes))
            .collect();
        victims.sort_by_key(|(_, used, _)| *used);
        let mut resident = tenants.resident_bytes;
        let mut evict = Vec::new();
        for (name, _, victim_bytes) in victims {
            if fits(resident) {
                break;
            }
            resident -= victim_bytes;
            evict.push(name);
        }
        if !fits(resident) {
            return Err(ServeError::BudgetExceeded {
                needed: bytes,
                budget: self.budget_bytes,
            });
        }
        for name in evict {
            if let Some(entry) = tenants.map.remove(&name) {
                tenants.resident_bytes -= entry.bytes;
                clear_tenant_bytes(&name);
                metrics::STORE_EVICTIONS.inc_always();
            }
        }
        tenants.set_gauge();
        Ok(())
    }

    /// Evicts tenant `name`, returning whether it was resident. The
    /// default tenant is pinned and never evicted (`false`). In-flight
    /// batches holding the snapshot `Arc` are unaffected.
    pub fn evict_tenant(&self, name: &str) -> bool {
        if name == DEFAULT_TENANT {
            return false;
        }
        let mut tenants = self.tenants.write().expect("registry lock poisoned");
        match tenants.map.remove(name) {
            Some(entry) => {
                tenants.resident_bytes -= entry.bytes;
                tenants.set_gauge();
                clear_tenant_bytes(name);
                metrics::STORE_EVICTIONS.inc_always();
                true
            }
            None => false,
        }
    }

    /// Cards for every resident tenant, default first, then by name.
    pub fn tenants(&self) -> Vec<TenantInfo> {
        let tenants = self.tenants.read().expect("registry lock poisoned");
        let mut infos: Vec<TenantInfo> = tenants
            .map
            .iter()
            .map(|(name, e)| TenantInfo {
                tenant: name.clone(),
                tag: e.snapshot.tag.clone(),
                generation: e.generation,
                bytes: e.bytes,
            })
            .collect();
        infos.sort_by(|a, b| {
            (a.tenant.as_str() != DEFAULT_TENANT, a.tenant.as_str())
                .cmp(&(b.tenant.as_str() != DEFAULT_TENANT, b.tenant.as_str()))
        });
        infos
    }

    /// Atomically installs `snapshot` as the default tenant's new model
    /// and returns its generation. In-flight readers keep their old `Arc`;
    /// the old model is dropped when the last of them finishes.
    ///
    /// # Errors
    /// [`ServeError::BudgetExceeded`] when the new default cannot fit the
    /// budget even with every unpinned tenant evicted.
    pub fn try_swap(&self, snapshot: ModelSnapshot) -> Result<u64, ServeError> {
        // Cast + pack the f32 plan *before* taking the write lock: the
        // one-time conversion cost lands on the swap caller, never on a
        // reader or an in-flight batch.
        if self.precision == EnginePrecision::F32 {
            snapshot.classifier.warm_f32();
        }
        let bytes = snapshot.resident_cost();
        let mut tenants = self.tenants.write().expect("registry lock poisoned");
        let freed = tenants.map.get(DEFAULT_TENANT).map_or(0, |e| e.bytes);
        self.make_room(&mut tenants, bytes, freed, DEFAULT_TENANT)?;
        let generation = self.installs.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(old) = tenants.map.insert(
            DEFAULT_TENANT.to_string(),
            TenantEntry {
                snapshot: Arc::new(snapshot),
                generation,
                bytes,
                last_used: AtomicU64::new(self.tick()),
            },
        ) {
            tenants.resident_bytes -= old.bytes;
        }
        tenants.resident_bytes += bytes;
        tenants.set_gauge();
        set_tenant_bytes(DEFAULT_TENANT, bytes);
        metrics::SERVE_SWAPS.inc_always();
        metrics::SERVE_GENERATION.set_always(generation);
        Ok(generation)
    }

    /// [`ModelRegistry::try_swap`] for unbudgeted registries (the original
    /// single-model API).
    ///
    /// # Panics
    /// Panics if a configured budget cannot fit the new default model —
    /// budgeted callers should use [`ModelRegistry::try_swap`].
    pub fn swap(&self, snapshot: ModelSnapshot) -> u64 {
        self.try_swap(snapshot)
            .expect("default model exceeds the registry byte budget")
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use targad_core::{Runtime, TargAd, TargAdConfig};
    use targad_data::GeneratorSpec;

    fn snapshot(tag: &str) -> ModelSnapshot {
        let bundle = GeneratorSpec::quick_demo().generate(17);
        let mut model = TargAd::try_new(TargAdConfig::fast()).expect("valid config");
        model.fit(&bundle.train, 17).expect("fit");
        let thresholds = model
            .calibrate_thresholds(&bundle.val.features, &bundle.val.three_way_labels())
            .expect("calibrate");
        ModelSnapshot::new(model.classifier().unwrap().clone(), thresholds, tag)
    }

    #[test]
    fn swap_bumps_generation_and_replaces_snapshot() {
        let registry = ModelRegistry::new(snapshot("a"));
        let (s1, g1) = registry.current();
        assert_eq!(g1, 1);
        assert_eq!(s1.tag, "a");
        assert!(s1.thresholds.is_complete());

        let g2 = registry.swap(snapshot("b"));
        assert_eq!(g2, 2);
        let (s2, g) = registry.current();
        assert_eq!(g, 2);
        assert_eq!(s2.tag, "b");
        // The old handle is still alive and still scores.
        assert_eq!(s1.tag, "a");
    }

    #[test]
    fn tenant_names_are_validated() {
        for good in ["a", "merchant-42", "A_b-C", &"x".repeat(64)] {
            assert!(valid_tenant_name(good), "{good}");
        }
        for bad in ["", "../etc", "a b", "a/b", "a\n", &"x".repeat(65)] {
            assert!(!valid_tenant_name(bad), "{bad:?}");
        }
        let registry = ModelRegistry::new(snapshot("a"));
        assert!(matches!(
            registry.resolve(Some("../etc")),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            registry.resolve(Some("ghost")),
            Err(ServeError::UnknownTenant(_))
        ));
    }

    #[test]
    fn lru_eviction_keeps_resident_bytes_under_budget() {
        let default = snapshot("default");
        let unit = snapshot("unit").resident_cost();
        // Room for the pinned default plus two tenants, not three.
        let budget = default.resident_cost() + 2 * unit + unit / 2;
        let registry =
            ModelRegistry::with_options(default, EnginePrecision::F64, budget, None).unwrap();

        registry.load_tenant("t1", snapshot("m1")).unwrap();
        registry.load_tenant("t2", snapshot("m2")).unwrap();
        assert!(registry.resident_bytes() <= budget);

        // Touch t1 so t2 is the LRU victim.
        registry.resolve(Some("t1")).unwrap();
        registry.load_tenant("t3", snapshot("m3")).unwrap();
        assert!(registry.resident_bytes() <= budget);

        let names: Vec<String> = registry.tenants().into_iter().map(|t| t.tenant).collect();
        assert_eq!(names, vec!["default", "t1", "t3"]);

        // A registry whose pinned default cannot fit at all is rejected.
        let before = registry.tenants().len();
        let err =
            match ModelRegistry::with_options(snapshot("too-big"), EnginePrecision::F64, 1, None) {
                Err(e) => e,
                Ok(_) => panic!("oversized default must be rejected"),
            };
        assert!(matches!(err, ServeError::BudgetExceeded { .. }));
        assert_eq!(registry.tenants().len(), before);
    }

    #[test]
    fn eviction_never_tears_a_held_snapshot() {
        let registry = ModelRegistry::new(snapshot("default"));
        registry.load_tenant("t1", snapshot("m1")).unwrap();
        let (held, generation) = registry.resolve(Some("t1")).unwrap();
        assert!(registry.evict_tenant("t1"));
        assert!(!registry.evict_tenant("t1"), "already gone");
        assert!(!registry.evict_tenant(DEFAULT_TENANT), "default is pinned");
        // The held Arc still scores after eviction.
        assert_eq!(held.tag, "m1");
        assert!(generation >= 2);
        let x = targad_linalg::Matrix::zeros(1, held.classifier.input_dim());
        assert!(held.classifier.target_scores_rt(&x, &Runtime::serial())[0].is_finite());
        assert!(matches!(
            registry.resolve(Some("t1")),
            Err(ServeError::UnknownTenant(_))
        ));
    }

    #[test]
    fn fault_in_racing_an_eviction_never_panics() {
        let dir = std::env::temp_dir().join(format!("targad-registry-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tenant = snapshot("t");
        targad_store::save(
            &tenant.classifier,
            &tenant.thresholds,
            EnginePrecision::F64,
            dir.join("t.tgsnp"),
        )
        .unwrap();
        let registry = ModelRegistry::with_options(
            snapshot("default"),
            EnginePrecision::F64,
            0,
            Some(dir.clone()),
        )
        .unwrap();

        // One thread faults `t` in over and over while another evicts it
        // as fast as it can, so evictions land between the admit and the
        // return of a fault-in.
        let done = std::sync::atomic::AtomicBool::new(false);
        let faults = std::thread::scope(|s| {
            let evictor = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    registry.evict_tenant("t");
                }
            });
            let faults = s
                .spawn(|| {
                    for _ in 0..10_000 {
                        let (held, generation) = registry.resolve(Some("t")).expect("fault-in");
                        assert_eq!(held.tag, "t");
                        assert!(generation >= 2);
                    }
                })
                .join();
            // Stop the evictor even when a fault-in panicked.
            done.store(true, Ordering::Release);
            evictor.join().expect("evictor thread");
            faults
        });
        std::fs::remove_dir_all(&dir).unwrap();
        if let Err(panic) = faults {
            std::panic::resume_unwind(panic);
        }
    }
}
