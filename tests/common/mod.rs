//! Helpers shared by the integration tests.

use cloudchar_monitor::{catalog, SeriesStore};

/// The determinism-suite FNV-1a fold of every sampled series: hosts in
/// presentation order, catalog order within each host. Traced runs
/// carry an empty resident store, so the read-back store is folded with
/// the run's own host order.
pub fn fingerprint(hosts: &[String], store: &SeriesStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let c = catalog();
    for host in hosts {
        for id in c.ids() {
            if let Some(s) = store.get(host, id) {
                for &v in &s.values {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}
