//! Integer/pointer kernels: the low-stress end of the suite (mcf lowest).
//! Their tiny per-op path stress gives them the deepest safe undervolting
//! in Figure 4, while their memory and branch behaviour diversifies the
//! counter signatures the §4 prediction models consume.

use crate::suite::Dataset;
use crate::util::DataGen;
use margins_sim::{Machine, OutputDigest};

/// `mcf`-like: network-simplex pointer chasing over a multi-megabyte arc
/// array — almost pure loads and address arithmetic, DRAM-bound. The
/// lowest stress mass of the suite (≈ 0.6k `ref`), anchoring the bottom of
/// the Vmin band.
pub(crate) fn mcf(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    // 1.5M-word (12 MB) successor array: bigger than L3.
    let nodes = dataset.scaled(1_500_000);
    let next = m.alloc(nodes);
    let cost = m.alloc(nodes / 64 + 1);
    let mut gen = DataGen::new(0x3CF);
    // Sparse initialization of a permutation-ish successor chain.
    for i in (0..nodes).step_by(127) {
        m.store_u64(next.offset(i as u64), gen.below(nodes as u64));
    }
    let steps = dataset.scaled(9_500);
    let mut digest = OutputDigest::new();
    let mut cur = 1u64;
    let mut total_cost = 0u64;
    for s in 0..steps {
        if m.halted() {
            return digest;
        }
        let succ = m.load_u64(next.offset(cur));
        let hop = m.iadd(succ, (s % 8191) as u64);
        cur = hop % nodes as u64;
        let c = m.load_u64(cost.offset(cur / 64));
        total_cost = m.iadd(total_cost, c & 0xFF);
        if m.branch(total_cost.is_multiple_of(3)) {
            total_cost = m.iadd(total_cost, 1);
        }
    }
    digest.absorb_u64(total_cost);
    digest.absorb_u64(cur);
    digest
}

/// `gcc`-like: compiler passes — branchy integer work over medium arrays
/// with a large instruction footprint (drives L1I refills). Stress mass
/// ≈ 0.9k (`ref`).
pub(crate) fn gcc(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    m.set_code_footprint(192 * 1024);
    let items = dataset.scaled(8_200);
    let ir = m.alloc(items);
    let mut gen = DataGen::new(0x6CC);
    for i in 0..items {
        m.store_u64(ir.offset(i as u64), gen.next_u64());
    }
    let mut digest = OutputDigest::new();
    let mut hash = 0xCBF2_9CE4u64;
    for i in 0..items {
        if m.halted() {
            return digest;
        }
        let insn = m.load_u64(ir.offset(i as u64));
        let opcode = m.iand(insn, 0x3F);
        // "Pattern match" on the opcode — data-dependent branches.
        if m.branch(opcode < 16) {
            let folded = m.ixor(hash, insn);
            hash = m.ishl(folded, 3);
        } else if m.branch(opcode < 40) {
            let sum = m.iadd(hash, insn);
            hash = m.ishr(sum, 1);
        } else {
            hash = m.imul(hash | 1, 0x100_0193);
        }
    }
    digest.absorb_u64(hash);
    digest
}

/// `gobmk`-like: Go position evaluation — bitboard operations with
/// hard-to-predict branches. Stress mass ≈ 0.9k (`ref`).
pub(crate) fn gobmk(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    m.set_code_footprint(96 * 1024);
    let moves = dataset.scaled(9_800);
    let board = m.alloc(64);
    let mut gen = DataGen::new(0x60B);
    for i in 0..64 {
        m.store_u64(board.offset(i), gen.next_u64());
    }
    let mut digest = OutputDigest::new();
    let mut territory = 0u64;
    for mv in 0..moves {
        if m.halted() {
            return digest;
        }
        let row = gen.below(62) + 1;
        let above = m.load_u64(board.offset(row - 1));
        let here = m.load_u64(board.offset(row));
        let below = m.load_u64(board.offset(row + 1));
        let neighbours = m.ior(above, below);
        let liberties = m.iand(here, neighbours);
        // Unpredictable: depends on synthesized board data.
        if m.branch(liberties.count_ones().is_multiple_of(2)) {
            let gained = m.ixor(here, liberties);
            m.store_u64(board.offset(row), gained);
            territory = m.iadd(territory, gained.count_ones() as u64);
        } else {
            territory = m.iadd(territory, (mv % 3) as u64);
        }
    }
    digest.absorb_u64(territory);
    digest
}

/// `sjeng`-like: chess search — shift-heavy bitboard move generation with
/// data-dependent branches. Stress mass ≈ 0.85k (`ref`).
pub(crate) fn sjeng(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let nodes = dataset.scaled(9_600);
    let tt = m.alloc(4096);
    let mut gen = DataGen::new(0x51E6);
    for i in (0..4096).step_by(3) {
        m.store_u64(tt.offset(i as u64), gen.next_u64());
    }
    let mut digest = OutputDigest::new();
    let mut score = 0u64;
    let mut occupancy = 0x00FF_0000_0000_FF00u64;
    for n in 0..nodes {
        if m.halted() {
            return digest;
        }
        let attacks = m.ishl(occupancy, (n % 7) as u32 + 1);
        let defended = m.ishr(occupancy, (n % 5) as u32 + 1);
        let contested = m.iand(attacks, defended);
        let key = m.ixor(contested, occupancy);
        let slot = key % 4096;
        let entry = m.load_u64(tt.offset(slot));
        if m.branch(entry & 1 == key & 1) {
            score = m.iadd(score, entry & 0xFFFF);
        } else {
            m.store_u64(tt.offset(slot), key);
            occupancy = m.ior(occupancy, contested);
        }
    }
    digest.absorb_u64(score);
    digest.absorb_u64(occupancy);
    digest
}

/// `hmmer`-like: profile HMM dynamic programming — a predictable
/// add/compare inner loop over score matrices. Stress mass ≈ 1.1k (`ref`).
pub(crate) fn hmmer(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let cells = dataset.scaled(12_800);
    let width = 128usize;
    let match_row = m.alloc(width);
    let insert_row = m.alloc(width);
    let mut gen = DataGen::new(0x4333);
    for i in 0..width {
        m.store_u64(match_row.offset(i as u64), gen.below(1000));
        m.store_u64(insert_row.offset(i as u64), gen.below(1000));
    }
    let mut digest = OutputDigest::new();
    let mut best = 0u64;
    for c in 0..cells {
        if m.halted() {
            return digest;
        }
        let j = (c % (width - 1) + 1) as u64;
        let diag = m.load_u64(match_row.offset(j - 1));
        let up = m.load_u64(insert_row.offset(j));
        let emit = (c * 37 % 97) as u64;
        let via_match = m.iadd(diag, emit);
        let via_insert = m.iadd(up, emit / 2);
        // max() with a predictable-ish branch.
        let score = if m.branch(via_match >= via_insert) {
            via_match
        } else {
            via_insert
        };
        m.store_u64(match_row.offset(j), score % 100_000);
        if m.branch(score > best) {
            best = score;
        }
    }
    digest.absorb_u64(best);
    digest.absorb_u64(cells as u64);
    // The final DP row is part of the program output.
    for j in (0..width).step_by(17) {
        let v = m.load_u64(match_row.offset(j as u64));
        digest.absorb_u64(v);
    }
    digest
}

/// `libquantum`-like: quantum gate simulation — streaming XOR over a large
/// state vector. Stress mass ≈ 0.7k (`ref`).
pub(crate) fn libquantum(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let state = dataset.scaled(600_000);
    let reg = m.alloc(state);
    let mut gen = DataGen::new(0x11B0);
    for i in (0..state).step_by(211) {
        m.store_u64(reg.offset(i as u64), gen.next_u64());
    }
    let gates = dataset.scaled(14_000);
    let mut digest = OutputDigest::new();
    let mut parity = 0u64;
    let mut pos = 0usize;
    for g in 0..gates {
        if m.halted() {
            return digest;
        }
        pos = (pos + 4093) % state;
        let amp = m.load_u64(reg.offset(pos as u64));
        let mask = 1u64 << (g % 64);
        let flipped = m.ixor(amp, mask);
        m.store_u64(reg.offset(pos as u64), flipped);
        parity = m.ixor(parity, flipped);
    }
    digest.absorb_u64(parity);
    digest
}

/// `h264ref`-like: video encoding — sum-of-absolute-differences over
/// macroblocks; streaming loads with a compare/branch per pixel. Stress
/// mass ≈ 1.0k (`ref`).
pub(crate) fn h264ref(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let pixels = dataset.scaled(15_500);
    let frame_a = m.alloc(pixels);
    let frame_b = m.alloc(pixels);
    let mut gen = DataGen::new(0x4264);
    for i in 0..pixels {
        m.store_u64(frame_a.offset(i as u64), gen.below(256));
        m.store_u64(frame_b.offset(i as u64), gen.below(256));
    }
    let mut digest = OutputDigest::new();
    let mut sad = 0u64;
    for i in 0..pixels {
        if m.halted() {
            return digest;
        }
        let a = m.load_u64(frame_a.offset(i as u64));
        let b = m.load_u64(frame_b.offset(i as u64));
        let diff = if m.branch(a >= b) {
            m.isub(a, b)
        } else {
            m.isub(b, a)
        };
        sad = m.iadd(sad, diff);
    }
    digest.absorb_u64(sad);
    digest
}

/// `omnetpp`-like: discrete-event simulation — binary-heap event queue
/// operations, pointer-y with data-dependent branches. Stress mass ≈ 0.75k
/// (`ref`).
pub(crate) fn omnetpp(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let events = dataset.scaled(7_800);
    let cap = 2048usize;
    let heap = m.alloc(cap);
    let mut gen = DataGen::new(0x03E7);
    let mut size = 0usize;
    let mut digest = OutputDigest::new();
    let mut clock = 0u64;
    for e in 0..events {
        if m.halted() {
            return digest;
        }
        if size < cap - 1 && (e % 3 != 0 || size == 0) {
            // Insert: sift up.
            let t = clock + gen.below(500) + 1;
            let mut i = size;
            size += 1;
            m.store_u64(heap.offset(i as u64), t);
            while i > 0 {
                let parent = (i - 1) / 2;
                let pv = m.load_u64(heap.offset(parent as u64));
                let cv = m.load_u64(heap.offset(i as u64));
                if m.branch(cv < pv) {
                    m.store_u64(heap.offset(parent as u64), cv);
                    m.store_u64(heap.offset(i as u64), pv);
                    i = parent;
                } else {
                    break;
                }
            }
        } else {
            // Pop min: replace root with last, sift down one level.
            let root = m.load_u64(heap.offset(0));
            clock = clock.max(root);
            size -= 1;
            let last = m.load_u64(heap.offset(size as u64));
            m.store_u64(heap.offset(0), last);
            let l = m.load_u64(heap.offset(1));
            let r = m.load_u64(heap.offset(2));
            let child = if m.branch(l <= r) { 1u64 } else { 2u64 };
            let cv = m.load_u64(heap.offset(child));
            if m.branch(cv < last) {
                m.store_u64(heap.offset(0), cv);
                m.store_u64(heap.offset(child), last);
            }
        }
    }
    digest.absorb_u64(clock);
    digest.absorb_u64(size as u64);
    digest
}

/// `astar`-like: pathfinding — grid neighbour expansion with open-list
/// updates; loads and unpredictable branches. Stress mass ≈ 0.8k (`ref`).
pub(crate) fn astar(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let expansions = dataset.scaled(7_200);
    let side = 256usize;
    let gmap = m.alloc(side * side / 8);
    let mut gen = DataGen::new(0xA57A);
    for i in (0..side * side / 8).step_by(5) {
        m.store_u64(gmap.offset(i as u64), gen.next_u64());
    }
    let mut digest = OutputDigest::new();
    let mut cur = (side / 2 * side + side / 2) as u64;
    let mut path_cost = 0u64;
    for e in 0..expansions {
        if m.halted() {
            return digest;
        }
        let dir = gen.below(4);
        let cand = match dir {
            0 => cur.wrapping_add(1),
            1 => cur.wrapping_sub(1),
            2 => cur.wrapping_add(side as u64),
            _ => cur.wrapping_sub(side as u64),
        } % (side * side) as u64;
        let word = m.load_u64(gmap.offset(cand / 512));
        let blocked = word >> (cand % 64) & 1 == 1;
        if m.branch(blocked) {
            path_cost = m.iadd(path_cost, 5);
        } else {
            cur = cand;
            // f = g + h with a weighted Manhattan heuristic.
            let h = m.imul(cand % side as u64 + 1, 3);
            let g = m.iadd(path_cost, (e % 3) as u64 + 1);
            path_cost = m.iadd(g, h & 0x7);
        }
    }
    digest.absorb_u64(path_cost);
    digest.absorb_u64(cur);
    digest
}

/// `bzip2`-like: block compression — byte histogram + counting-sort pass.
/// Stress mass ≈ 0.9k (`ref`).
pub(crate) fn bzip2(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    let bytes = dataset.scaled(13_000);
    let data = m.alloc(bytes);
    let hist = m.alloc(256);
    let mut gen = DataGen::new(0xB21B);
    for i in 0..bytes {
        m.store_u64(data.offset(i as u64), gen.below(256));
    }
    let mut digest = OutputDigest::new();
    // Histogram.
    for i in 0..bytes {
        if m.halted() {
            return digest;
        }
        let b = m.load_u64(data.offset(i as u64));
        let slot = b % 256;
        let c = m.load_u64(hist.offset(slot));
        let inc = m.iadd(c, 1);
        m.store_u64(hist.offset(slot), inc);
    }
    // Prefix sums + entropy-ish checksum.
    let mut run = 0u64;
    let mut checksum = 0u64;
    for s in 0..256u64 {
        let c = m.load_u64(hist.offset(s));
        run = m.iadd(run, c);
        if m.branch(c > (bytes / 300) as u64) {
            let weighted = m.imul(c, s + 1);
            checksum = m.ixor(checksum, weighted);
        }
    }
    digest.absorb_u64(run);
    digest.absorb_u64(checksum);
    digest
}

/// `xalancbmk`-like: XSLT processing — DOM-tree walking with virtual
/// dispatch (indirect branches) and a huge instruction footprint. Stress
/// mass ≈ 0.6k (`ref`).
pub(crate) fn xalancbmk(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    m.set_code_footprint(256 * 1024);
    let visits = dataset.scaled(8_600);
    let nodes = 50_000usize;
    // Node records: [first_child, next_sibling] pairs.
    let tree = m.alloc(nodes * 2);
    let mut gen = DataGen::new(0xA1A4);
    for i in 0..nodes {
        m.store_u64(tree.offset((2 * i) as u64), gen.below(nodes as u64));
        m.store_u64(tree.offset((2 * i + 1) as u64), gen.below(nodes as u64));
    }
    let mut digest = OutputDigest::new();
    let mut cur = 1u64;
    let mut depth_sum = 0u64;
    for v in 0..visits {
        if m.halted() {
            return digest;
        }
        let child = m.load_u64(tree.offset(2 * cur));
        let sibling = m.load_u64(tree.offset(2 * cur + 1));
        // "Virtual dispatch" on the node kind.
        m.indirect_branch(0x7000 + (cur % 13) * 64);
        cur = if m.branch(v % 3 == 0) { child } else { sibling } % nodes as u64;
        depth_sum = m.iadd(depth_sum, cur & 0xF);
    }
    digest.absorb_u64(depth_sum);
    digest.absorb_u64(cur);
    digest
}

/// `perlbench`-like: interpreter — hash-table churn with multiply/xor
/// string hashing. Stress mass ≈ 1.0k (`ref`).
pub(crate) fn perlbench(m: &mut Machine<'_>, dataset: Dataset) -> OutputDigest {
    m.set_code_footprint(128 * 1024);
    let keys = dataset.scaled(3_600);
    let buckets = 4096usize;
    let table = m.alloc(buckets);
    let mut gen = DataGen::new(0x9E71);
    let mut digest = OutputDigest::new();
    let mut collisions = 0u64;
    for k in 0..keys {
        if m.halted() {
            return digest;
        }
        let key = gen.next_u64();
        // FNV-ish hash through machine ops.
        let h1 = m.imul(key | 1, 0x100_0000_01B3);
        let h2 = m.ixor(h1, key >> 17);
        let h3 = m.imul(h2 | 1, 0x9E37_79B9);
        let slot = h3 % buckets as u64;
        let existing = m.load_u64(table.offset(slot));
        if m.branch(existing != 0) {
            collisions = m.iadd(collisions, 1);
            let merged = m.ixor(existing, h3);
            m.store_u64(table.offset(slot), merged);
        } else {
            m.store_u64(table.offset(slot), h3 | 1);
        }
        let _ = k;
    }
    digest.absorb_u64(collisions);
    // Fold a sample of the table into the digest.
    for s in (0..buckets).step_by(37) {
        let v = m.load_u64(table.offset(s as u64));
        digest.absorb_u64(v);
    }
    digest
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_deterministic_and_healthy, ref_mass};

    const INTEGER_KERNELS: [&str; 12] = [
        "mcf",
        "gcc",
        "gobmk",
        "sjeng",
        "hmmer",
        "libquantum",
        "h264ref",
        "omnetpp",
        "astar",
        "bzip2",
        "xalancbmk",
        "perlbench",
    ];

    #[test]
    fn integer_kernels_deterministic_and_healthy() {
        assert_deterministic_and_healthy(&INTEGER_KERNELS);
    }

    #[test]
    fn integer_kernels_sit_at_the_low_stress_end() {
        for name in INTEGER_KERNELS {
            let mass = ref_mass(name);
            assert!(
                mass < 3_000.0,
                "{name}: integer kernels must be low-stress, got {mass}"
            );
            assert!(mass > 100.0, "{name}: but not trivial, got {mass}");
        }
    }

    #[test]
    fn mcf_is_the_lightest() {
        let mcf = ref_mass("mcf");
        for name in INTEGER_KERNELS {
            if name == "mcf" {
                continue;
            }
            let mass = ref_mass(name);
            assert!(mcf <= mass * 1.4, "mcf {mcf} vs {name} {mass}");
        }
    }
}
