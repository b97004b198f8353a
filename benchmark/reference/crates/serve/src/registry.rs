//! The multi-tenant artifact registry: named, hot-swappable serving
//! slots so many models/datasets are resident at once (per-tenant
//! seen-masks live inside each tenant's [`ServeState`]).
//!
//! The map itself is read-mostly: request threads resolve a tenant name
//! to its [`ArtifactSlot`] under a shared `RwLock` read guard (held only
//! for the `HashMap` lookup + `Arc` clone), then serve and swap through
//! the slot's lock-free machinery. Registering or removing tenants takes
//! the write lock; swapping an existing tenant's artifact does **not**.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::state::{ServeError, ServeState};
use crate::swap::ArtifactSlot;

/// A summary row of one registered tenant (for `stats` reporting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantInfo {
    /// The tenant's registry name.
    pub name: String,
    /// The artifact generation currently served.
    pub version: u64,
    /// Completed hot swaps on the slot.
    pub swaps: u64,
    /// User rows of the current artifact.
    pub n_users: usize,
    /// Catalogue size of the current artifact.
    pub n_items: usize,
}

/// Named [`ArtifactSlot`]s, one per tenant.
#[derive(Default)]
pub struct Registry {
    slots: RwLock<HashMap<String, Arc<ArtifactSlot>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces the slot of) `tenant`, serving `state` as
    /// version 1. Returns the slot for direct use.
    ///
    /// Replacing a slot orphans the old one: holders keep serving from it
    /// until they re-resolve the name. Prefer [`swap`](Self::swap) to
    /// deploy a new artifact generation to an existing tenant — that
    /// keeps the slot (and its version history) and moves all holders on
    /// their next load.
    pub fn insert(&self, tenant: impl Into<String>, state: ServeState) -> Arc<ArtifactSlot> {
        let slot = Arc::new(ArtifactSlot::new(state));
        self.slots.write().expect("registry lock").insert(tenant.into(), Arc::clone(&slot));
        slot
    }

    /// Resolves `tenant` to its slot.
    pub fn get(&self, tenant: &str) -> Result<Arc<ArtifactSlot>, ServeError> {
        self.slots
            .read()
            .expect("registry lock")
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// Hot-swaps `tenant`'s served artifact to `state`; returns the new
    /// version. In-flight requests finish on the old generation, which
    /// drops when its last holder does.
    pub fn swap(&self, tenant: &str, state: ServeState) -> Result<u64, ServeError> {
        let (version, _old) = self.get(tenant)?.swap(state);
        Ok(version)
    }

    /// Removes `tenant`. Holders of the slot keep serving from it;
    /// the slot (and its artifact) drop with their last holder.
    pub fn remove(&self, tenant: &str) -> bool {
        self.slots.write().expect("registry lock").remove(tenant).is_some()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.slots.read().expect("registry lock").len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sorted summary of every tenant (name order, for stable output).
    pub fn tenants(&self) -> Vec<TenantInfo> {
        let mut rows: Vec<TenantInfo> = self
            .slots
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, slot)| {
                let state = slot.load();
                TenantInfo {
                    name: name.clone(),
                    version: state.version(),
                    swaps: slot.swaps(),
                    n_users: state.n_users(),
                    n_items: state.n_items(),
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_linalg::Matrix;
    use bsl_models::{EvalScore, ModelArtifact};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn state(seed: u64) -> ServeState {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = Matrix::gaussian(4, 4, 1.0, &mut rng);
        let items = Matrix::gaussian(20, 4, 1.0, &mut rng);
        ServeState::new(ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot))
    }

    #[test]
    fn insert_get_swap_remove() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        reg.insert("yelp", state(1));
        reg.insert("gowalla", state(2));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get("yelp").unwrap().version(), 1);
        assert_eq!(reg.swap("yelp", state(3)).unwrap(), 2);
        assert_eq!(reg.get("yelp").unwrap().version(), 2);
        assert_eq!(reg.get("gowalla").unwrap().version(), 1, "tenants swap independently");
        assert_eq!(
            reg.swap("nope", state(4)).unwrap_err(),
            ServeError::UnknownTenant("nope".into())
        );
        assert!(reg.remove("yelp"));
        assert!(!reg.remove("yelp"));
        assert!(matches!(reg.get("yelp"), Err(ServeError::UnknownTenant(_))));
    }

    #[test]
    fn tenants_reports_sorted_summaries() {
        let reg = Registry::new();
        reg.insert("b", state(1));
        reg.insert("a", state(2));
        reg.swap("b", state(3)).unwrap();
        let rows = reg.tenants();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[0].version, 1);
        assert_eq!(rows[1].name, "b");
        assert_eq!(rows[1].version, 2);
        assert_eq!(rows[1].swaps, 1);
        assert_eq!(rows[0].n_users, 4);
        assert_eq!(rows[0].n_items, 20);
    }
}
