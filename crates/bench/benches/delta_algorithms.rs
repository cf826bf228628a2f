//! Micro-benchmarks of the delta-encoding primitives: the raw per-byte
//! costs that explain Table II. Run with `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deltacfs_delta::{cdc, compress, dedup, local, md5, rsync, Cost, DeltaParams};
use deltacfs_workloads::ContentGen;

const SIZE: usize = 4 * 1024 * 1024;

fn make_input() -> (Vec<u8>, Vec<u8>) {
    let mut old = vec![0u8; SIZE];
    let mut state = 0x2545F4914F6CDD1Du64;
    for b in old.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (state >> 33) as u8;
    }
    let mut new = old.clone();
    // A realistic edit: a small in-place change plus a shift.
    new[SIZE / 2..SIZE / 2 + 1024].fill(0xEE);
    new.splice(1000..1000, [0xAB; 64]);
    (old, new)
}

fn bench_primitives(c: &mut Criterion) {
    let (old, new) = make_input();
    let params = DeltaParams::new();

    let mut group = c.benchmark_group("delta_primitives");
    group.throughput(Throughput::Bytes(SIZE as u64));
    group.sample_size(10);

    group.bench_function("md5_whole_buffer", |b| {
        b.iter(|| md5(std::hint::black_box(&old)))
    });

    group.bench_function("rsync_signature", |b| {
        b.iter(|| rsync::signature(&old, &params, &mut Cost::new()))
    });

    let sig = rsync::signature(&old, &params, &mut Cost::new());
    group.bench_function("rsync_diff", |b| {
        b.iter(|| rsync::diff(&sig, &new, &params, &mut Cost::new()))
    });

    group.bench_function("local_bitwise_diff", |b| {
        b.iter(|| local::diff(&old, &new, &params, &mut Cost::new()))
    });

    group.bench_function("cdc_chunking", |b| {
        b.iter(|| cdc::chunks(&new, &cdc::CdcParams::seafile(), &mut Cost::new()))
    });

    group.bench_function("dedup_4mb_blocks", |b| {
        b.iter(|| dedup::block_ids(&new, dedup::DROPBOX_BLOCK_SIZE, &mut Cost::new()))
    });

    group.bench_function("lz_compress", |b| {
        b.iter(|| compress::compressed_size(&new, &mut Cost::new()))
    });
    group.finish();

    // Summary the paper's optimization rests on: the triggered local delta
    // never strong-hashes.
    let mut c_local = Cost::new();
    let d_local = local::diff(&old, &new, &params, &mut c_local);
    let mut c_rsync = Cost::new();
    let sig = rsync::signature(&old, &params, &mut c_rsync);
    let d_rsync = rsync::diff(&sig, &new, &params, &mut c_rsync);
    println!(
        "\nlocal bitwise diff:  strong-hashed {} B, compared {} B, delta {} B",
        c_local.bytes_strong_hashed,
        c_local.bytes_compared,
        d_local.wire_size()
    );
    println!(
        "classic rsync:       strong-hashed {} B, rolled {} B, delta {} B\n",
        c_rsync.bytes_strong_hashed,
        c_rsync.bytes_rolled,
        d_rsync.wire_size()
    );
}

fn bench_block_sizes(c: &mut Criterion) {
    let (old, new) = make_input();
    let mut group = c.benchmark_group("local_diff_block_size");
    group.sample_size(10);
    for bs in [1024usize, 4096, 16 * 1024, 64 * 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, &bs| {
            let params = DeltaParams::with_block_size(bs);
            b.iter(|| local::diff(&old, &new, &params, &mut Cost::new()))
        });
    }
    group.finish();
}

/// The wire codec's LZ77 kernel on chunk-frame-sized inputs (256 KiB,
/// the size a large group's frames reach): compression and inflation
/// throughput on text, two text/noise mixes and pure noise.
fn bench_lz77_frames(c: &mut Criterion) {
    const FRAME: usize = 256 * 1024;
    let mut gen = ContentGen::new(14);
    let inputs = [
        ("text", gen.text(FRAME)),
        ("mixed_0.8", gen.mixed(FRAME, 0.8)),
        ("mixed_0.6", gen.mixed(FRAME, 0.6)),
        ("noise", gen.noise(FRAME)),
    ];
    let mut group = c.benchmark_group("lz77_frame");
    group.throughput(Throughput::Bytes(FRAME as u64));
    group.sample_size(40);
    for (name, data) in &inputs {
        group.bench_with_input(BenchmarkId::new("compress", name), data, |b, data| {
            b.iter(|| compress::compress(data, &mut Cost::new()))
        });
        let packed = compress::compress(data, &mut Cost::new());
        group.bench_with_input(
            BenchmarkId::new("decompress", name),
            &packed,
            |b, packed| b.iter(|| compress::decompress_limited(packed, FRAME).expect("round trip")),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_block_sizes,
    bench_lz77_frames
);
criterion_main!(benches);
