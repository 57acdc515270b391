//! The in-memory fabric's frame-size histograms. Its own test binary: the
//! metrics registry is process-global, and no other traffic may move
//! while these series are read.

use gendpr_fednet::{Network, PeerId};

/// The `gendpr_net_frame_bytes` lines of one direction, its label dropped.
fn series(text: &str, dir: &str) -> Vec<String> {
    let label = format!("dir=\"{dir}\"");
    text.lines()
        .filter(|line| line.starts_with("gendpr_net_frame_bytes") && line.contains(&label))
        .map(|line| line.replace(&label, "dir"))
        .collect()
}

#[test]
fn an_in_memory_frame_counts_once_in_each_direction() {
    let net = Network::new();
    let a = net.register(PeerId(0));
    let _b = net.register(PeerId(1));
    let sizes = [0usize, 10, 64, 65, 1_000, 70_000];
    for &size in &sizes {
        a.send(PeerId(1), vec![7; size], size).unwrap();
    }
    let text = gendpr_obs::render();
    let sent = series(&text, "sent");
    assert_eq!(sent, series(&text, "received"));
    let total: usize = sizes.iter().sum();
    assert!(
        sent.contains(&format!("gendpr_net_frame_bytes_sum{{dir}} {total}")),
        "{sent:?}"
    );
    assert!(
        sent.contains(&format!(
            "gendpr_net_frame_bytes_count{{dir}} {}",
            sizes.len()
        )),
        "{sent:?}"
    );
    // Cumulative buckets: 64 B holds 0, 10 and 64; 256 B adds 65.
    assert!(
        sent.contains(&"gendpr_net_frame_bytes_bucket{dir,le=\"64\"} 3".to_string()),
        "{sent:?}"
    );
    assert!(
        sent.contains(&"gendpr_net_frame_bytes_bucket{dir,le=\"256\"} 4".to_string()),
        "{sent:?}"
    );
}
