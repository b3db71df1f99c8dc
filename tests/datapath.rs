//! Datapath integration under DFX reconfiguration: placements served
//! while the card swaps its CRUSH kernel equal software CRUSH.

use deliba_k::cluster::OsdMap;
use deliba_k::crush::{BucketAlg, MapBuilder};
use deliba_k::fpga::{AlveoU280, RmId};
use deliba_k::sim::{SimDuration, SimTime};

#[test]
fn dfx_swap_preserves_placement_correctness_under_load() {
    // The engine's placement path during a swap (Straw2 fallback) and
    // after it (specialized kernel): the devices come from the map's
    // epoch-keyed cache and equal software CRUSH whichever kernel the
    // card is charged for.
    let map = OsdMap::new(MapBuilder::new().host_alg(BucketAlg::Tree).build(8, 4));
    let mut card = AlveoU280::deliba_k_default();
    let done = card.reconfigure(SimTime::ZERO, RmId::Tree).unwrap();
    let mut devs = Vec::new();

    for x in 0..300u32 {
        // Interleave placements before and after the swap completes.
        let now = if x % 2 == 0 {
            SimTime::from_nanos(x as u64)
        } else {
            done + SimDuration::from_nanos(x as u64)
        };
        map.do_rule_cached(0, x, 3, &mut devs);
        let (_, kernel) = card.place_prefetched(now, Some(RmId::Tree));
        assert_eq!(devs, map.crush().do_rule(0, x, 3), "x={x} via {kernel:?}");
    }
    assert!(card.dfx_fallbacks() > 0, "some placements ran during the swap");
}
