//! Integration tests for the `scc` command-line tool.

use std::process::Command;

fn scc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("scc_cli_test_{}_{name}", std::process::id()));
    p
}

fn write_u32s(path: &std::path::Path, values: &[u32]) {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn compress_inspect_decompress_roundtrip() {
    let input = tmp("in.bin");
    let compressed = tmp("out.scc");
    let output = tmp("out.bin");
    let values: Vec<u32> =
        (0..100_000).map(|i| if i % 97 == 0 { i * 1000 } else { 700 + i % 300 }).collect();
    write_u32s(&input, &values);

    let st = scc()
        .args(["compress", input.to_str().unwrap(), compressed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("x) with"), "{stdout}");

    let st = scc().args(["inspect", compressed.to_str().unwrap()]).output().unwrap();
    assert!(st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("type u32"), "{stdout}");

    let st = scc()
        .args(["decompress", compressed.to_str().unwrap(), output.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let round = std::fs::read(&output).unwrap();
    let orig = std::fs::read(&input).unwrap();
    assert_eq!(round, orig);

    for p in [input, compressed, output] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn analyze_prints_candidates() {
    let input = tmp("an.bin");
    write_u32s(&input, &(0..50_000u32).map(|i| i * 3).collect::<Vec<_>>());
    let st = scc().args(["analyze", input.to_str().unwrap()]).output().unwrap();
    assert!(st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("PFOR-DELTA"), "{stdout}");
    let _ = std::fs::remove_file(input);
}

#[test]
fn explicit_scheme_and_width() {
    let input = tmp("ex.bin");
    let compressed = tmp("ex.scc");
    write_u32s(&input, &(0..10_000u32).map(|i| i % 64).collect::<Vec<_>>());
    let st = scc()
        .args([
            "compress",
            input.to_str().unwrap(),
            compressed.to_str().unwrap(),
            "--scheme",
            "pfor",
            "--bits",
            "6",
        ])
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    assert!(String::from_utf8_lossy(&st.stdout).contains("PFOR b=6"));
    for p in [input, compressed] {
        let _ = std::fs::remove_file(p);
    }
}

/// Compresses a small column and returns the path of the `.scc` file.
fn make_compressed(name: &str) -> std::path::PathBuf {
    let input = tmp(&format!("{name}_in.bin"));
    let compressed = tmp(&format!("{name}.scc"));
    write_u32s(
        &input,
        &(0..20_000u32).map(|i| if i % 91 == 0 { i * 500 } else { i % 128 }).collect::<Vec<_>>(),
    );
    let st = scc()
        .args(["compress", input.to_str().unwrap(), compressed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let _ = std::fs::remove_file(input);
    compressed
}

#[test]
fn both_layouts_roundtrip_through_the_cli() {
    // `compress` writes vertical segments (wire format v3). Horizontal
    // segments (v2) are what older files hold; that file is assembled
    // through the library. inspect/verify report the layout of either and
    // decompress restores the exact bytes.
    use scc::core::{analyze, compress_with_plan_in, frame, AnalyzeOpts, Layout};
    let input = tmp("vl_in.bin");
    let output = tmp("vl_out.bin");
    let values: Vec<u32> =
        (0..50_000u32).map(|i| if i % 91 == 0 { i * 500 } else { i % 128 }).collect();
    write_u32s(&input, &values);
    for (layout, version) in [("vertical", 3u8), ("horizontal", 2u8)] {
        let compressed = tmp(&format!("vl_{layout}.scc"));
        if layout == "vertical" {
            let st = scc()
                .args(["compress", input.to_str().unwrap(), compressed.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
        } else {
            let plan = analyze(&values, &AnalyzeOpts::default()).best().unwrap().plan.clone();
            let seg = compress_with_plan_in(&values, &plan, Layout::Horizontal);
            // Container: magic, the u32 type tag, one segment.
            let mut file = b"SCCF\x01".to_vec();
            file.extend_from_slice(&1u32.to_le_bytes());
            frame::put_len_prefixed(&mut file, &seg.to_bytes());
            std::fs::write(&compressed, file).unwrap();
        }

        // The first segment's wire version sits right after the 9-byte
        // container preamble and 4-byte length prefix.
        let bytes = std::fs::read(&compressed).unwrap();
        assert_eq!(bytes[9 + 4 + 4], version, "{layout} wire version");

        let st = scc().args(["inspect", compressed.to_str().unwrap()]).output().unwrap();
        assert!(st.status.success());
        assert!(String::from_utf8_lossy(&st.stdout).contains(layout));

        let st = scc().args(["verify", compressed.to_str().unwrap()]).output().unwrap();
        assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
        let stdout = String::from_utf8_lossy(&st.stdout);
        assert!(stdout.contains(layout) && stdout.contains("0 corrupt"), "{stdout}");

        let st = scc()
            .args(["decompress", compressed.to_str().unwrap(), output.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
        assert_eq!(std::fs::read(&output).unwrap(), std::fs::read(&input).unwrap(), "{layout}");
        let _ = std::fs::remove_file(compressed);
    }
    for p in [input, output] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn verify_reports_clean_and_corrupt_segments() {
    let compressed = make_compressed("vf");

    let st = scc().args(["verify", compressed.to_str().unwrap()]).output().unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("verified"), "{stdout}");
    assert!(stdout.contains("0 corrupt"), "{stdout}");

    // Flip one byte in the middle of the payload: verify must fail with a
    // nonzero exit and report the corrupt file offset.
    let mut bytes = std::fs::read(&compressed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&compressed, &bytes).unwrap();
    let st = scc().args(["verify", compressed.to_str().unwrap()]).output().unwrap();
    assert!(!st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("CORRUPT at file offset"), "{stdout}");

    let _ = std::fs::remove_file(compressed);
}

#[test]
fn truncated_files_fail_cleanly_not_panic() {
    let compressed = make_compressed("tr");
    let bytes = std::fs::read(&compressed).unwrap();
    // Cut the container at a handful of nasty boundaries: inside the
    // 9-byte preamble, inside a length prefix, and inside a segment body.
    for cut in [0, 3, 7, 11, bytes.len() / 2, bytes.len() - 1] {
        let short = tmp("tr_cut.scc");
        std::fs::write(&short, &bytes[..cut]).unwrap();
        for cmd in ["inspect", "decompress"] {
            let st = scc()
                .args([cmd, short.to_str().unwrap(), "/tmp/scc_cli_never.bin"])
                .output()
                .unwrap();
            assert!(!st.status.success(), "{cmd} at cut {cut} should fail");
            let stderr = String::from_utf8_lossy(&st.stderr);
            assert!(!stderr.contains("panicked"), "{cmd} at cut {cut} panicked: {stderr}");
        }
        let _ = std::fs::remove_file(short);
    }
    // A cut that preserves the preamble must produce the typed
    // truncation message.
    let short = tmp("tr_cut2.scc");
    std::fs::write(&short, &bytes[..bytes.len() - 1]).unwrap();
    let st = scc().args(["inspect", short.to_str().unwrap()]).output().unwrap();
    assert!(!st.status.success());
    let stderr = String::from_utf8_lossy(&st.stderr);
    assert!(stderr.contains("truncated"), "{stderr}");
    for p in [short, compressed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn explain_prints_annotated_operator_trees() {
    let metrics = tmp("explain_metrics.json");
    let st = scc()
        .args(["explain", "--queries", "1,6", "--sf", "0.002", "--metrics-json"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    // One tree per query, with per-operator counters and wall time.
    assert!(stdout.contains("Q1 —"), "{stdout}");
    assert!(stdout.contains("Q6 —"), "{stdout}");
    assert!(stdout.contains("Scan(lineitem:"), "{stdout}");
    assert!(stdout.contains("HashAggregate"), "{stdout}");
    assert!(stdout.contains("rows="), "{stdout}");
    assert!(stdout.contains("total="), "{stdout}");
    // The metrics dump is a schema-v1 JSON document with compression
    // telemetry populated by the queries' decode path.
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(json.contains("core.decode.pfor.ns_per_value"), "{json}");
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn explain_rejects_unknown_query() {
    let st = scc().args(["explain", "--queries", "2"]).output().unwrap();
    assert!(!st.status.success());
    assert!(String::from_utf8_lossy(&st.stderr).contains("not implemented"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown command.
    let st = scc().args(["frobnicate", "/nonexistent"]).output().unwrap();
    assert!(!st.status.success());
    // Decompressing a non-scc file.
    let input = tmp("bad.bin");
    std::fs::write(&input, b"not an scc file").unwrap();
    let st = scc().args(["decompress", input.to_str().unwrap(), "/tmp/never"]).output().unwrap();
    assert!(!st.status.success());
    // Misaligned input length.
    let st = scc().args(["analyze", input.to_str().unwrap()]).output().unwrap();
    assert!(!st.status.success());
    let _ = std::fs::remove_file(input);
}

#[test]
fn container_must_end_at_its_last_segment() {
    let compressed = make_compressed("len");
    let good = std::fs::read(&compressed).unwrap();
    assert_eq!(u32::from_le_bytes(good[5..9].try_into().unwrap()), 1, "one segment");
    let mut no_segments = good.clone();
    no_segments[5..9].copy_from_slice(&0u32.to_le_bytes());
    let mut appended = good.clone();
    appended.extend_from_slice(&[0xAB; 4]);
    let bad = tmp("len_bad.scc");
    let out = tmp("len_out.bin");
    for (case, bytes) in [("count 0", no_segments), ("4 bytes appended", appended)] {
        std::fs::write(&bad, &bytes).unwrap();
        for cmd in ["verify", "inspect", "decompress"] {
            let st =
                scc().args([cmd, bad.to_str().unwrap(), out.to_str().unwrap()]).output().unwrap();
            let stderr = String::from_utf8_lossy(&st.stderr);
            assert!(!st.status.success(), "{cmd} on {case} should fail");
            assert!(!stderr.contains("panicked"), "{cmd} on {case} panicked: {stderr}");
            assert!(stderr.contains("trailing bytes after the last"), "{cmd} on {case}: {stderr}");
        }
        assert!(!out.exists(), "decompress on {case} wrote output");
    }
    for p in [bad, compressed] {
        let _ = std::fs::remove_file(p);
    }
}

/// Kills and reaps every child on drop, so a failing test leaves no
/// server processes behind.
struct Children(Vec<std::process::Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn cluster_answers_byte_identically_after_a_node_is_sigkilled() {
    use scc::cluster::{ClusterConfig, Coordinator, Topology};
    use scc::storage::{stats_handle, Scan, ScanOptions};
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let rows = 20_000;
    // Free local ports: bind, note the address, release.
    let nodes: Vec<String> = (0..3)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        })
        .collect();
    let topology = Topology::new(nodes.clone());
    let topology_path = tmp("cluster_topology.txt");
    std::fs::write(&topology_path, topology.to_file_string()).unwrap();

    let mut children = Children(
        (0..nodes.len())
            .map(|node| {
                scc()
                    .args(["cluster-serve", "--topology", topology_path.to_str().unwrap()])
                    .args(["--node", &node.to_string(), "--rows", &rows.to_string()])
                    .args(["--workers", "2"])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .unwrap()
            })
            .collect(),
    );
    let started = Instant::now();
    for (node, addr) in nodes.iter().enumerate() {
        while std::net::TcpStream::connect(addr).is_err() {
            let exited = children.0[node].try_wait().unwrap();
            assert!(exited.is_none(), "node {node} exited before listening: {exited:?}");
            assert!(started.elapsed() < Duration::from_secs(30), "node {node} never listened");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let table = scc::server::demo_table(rows);
    let manifest = topology.manifest_for("demo", rows, table.seg_rows());
    let mut coord = Coordinator::new(topology, ClusterConfig::default());
    coord.register(manifest.clone());
    let columns = ["key", "val", "flag"];
    let oracle = scc::engine::ops::collect(&mut Scan::new(
        std::sync::Arc::clone(&table),
        &columns,
        ScanOptions::default(),
        stats_handle(),
        None,
    ));
    // A read spanning the end of a partition node 1 is primary for.
    let p = manifest.primary.iter().position(|&n| n == 1).expect("node 1 is a primary");
    let span_start = manifest.bounds[p].1 - 100;
    let span_len = 200.min(rows - span_start);

    for i in 0..8 {
        if i == 3 {
            children.0[1].kill().unwrap();
            children.0[1].wait().unwrap();
        }
        let (merged, rows_seen) =
            coord.scan("demo", &columns, None).unwrap_or_else(|e| panic!("scan {i}: {e}"));
        assert_eq!(rows_seen as usize, rows, "scan {i}");
        assert_eq!(merged, oracle, "scan {i} diverged from the local scan");
        for (col, column) in columns.iter().enumerate() {
            let want = table.try_read_rows(col, span_start, span_len).unwrap();
            let got = coord
                .segment_range("demo", column, span_start as u64, span_len as u32, i % 2 == 1)
                .unwrap_or_else(|e| panic!("read {i} of {column}: {e}"));
            assert_eq!(got, want, "read {i} of {column} diverged");
        }
    }
    drop(children);
    let _ = std::fs::remove_file(topology_path);
}
