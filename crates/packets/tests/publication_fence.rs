//! §5.1 publication fences per packet, in a test binary of its own:
//! `FenceStats` are process-wide, so the pool unit tests running in
//! parallel would add their fences to this test's window. Cargo runs
//! test binaries one at a time.

use mcgc_packets::{PacketPool, PoolConfig};

fn pool(packets: usize, capacity: usize) -> PacketPool<u64> {
    PacketPool::new(PoolConfig { packets, capacity })
}

#[test]
fn publication_fence_emitted_per_dirty_packet() {
    use mcgc_membar::FenceStats;
    let p = pool(4, 8);
    let before = FenceStats::snapshot();
    let mut pk = p.get_output().unwrap();
    for i in 0..5 {
        pk.push(i).unwrap();
    }
    p.put(pk);
    let mid = FenceStats::snapshot();
    assert_eq!(mid.since(&before).packet_publish, 1, "one fence per packet");
    // Draining without pushing emits no fence.
    let mut pk = p.get_input().unwrap();
    while pk.pop().is_some() {}
    p.put(pk);
    let after = FenceStats::snapshot();
    assert_eq!(after.since(&mid).packet_publish, 0);
}
