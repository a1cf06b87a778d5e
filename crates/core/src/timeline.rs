//! Timing-vs-power timelines: the Figs. 2, 3 and 9 of the paper,
//! reconstructed from a traced simulation run.
//!
//! The renderer draws, per node, one character column per time quantum:
//!
//! ```text
//! R  receiving        (communication mode, inbound)
//! S  sending          (communication mode, outbound)
//! a  ack transaction  (recovery protocol control traffic)
//! P  computing        (PROC at the share's DVS level)
//! .  idle
//! ```
//!
//! so the baseline's frame (Fig. 2) renders as `RRR…PPP…S.` repeating
//! every `D`, the two-node pipeline (Fig. 3) shows the stages overlapping,
//! and the rotation transition (Fig. 9) shows the doubled PROC and the
//! eliminated SEND/RECV pair.

use crate::pipeline::{build_engine_with, PipelineConfig};
use dles_net::Endpoint;
use dles_sim::{MemoryRecorder, SimTime, TraceRecord};

/// One contiguous activity interval on one node.
#[derive(Debug, Clone)]
pub struct Span {
    pub node: usize,
    pub start: SimTime,
    pub end: SimTime,
    /// Activity code: 'R', 'S', 'a', 'P' or '.'.
    pub code: char,
}

/// A captured multi-node activity timeline.
#[derive(Debug, Clone)]
pub struct Timeline {
    pub n_nodes: usize,
    pub horizon: SimTime,
    pub spans: Vec<Span>,
}

/// Run `cfg` for `frames` frame slots with a memory recorder attached and
/// extract the per-node activity spans from the structured event stream.
pub fn capture_timeline(mut cfg: PipelineConfig, frames: u64) -> Timeline {
    assert!(frames > 0, "need at least one frame");
    let horizon = SimTime::from_micros(frames * cfg.sys.frame_delay.as_micros());
    cfg.horizon = horizon;
    let n_nodes = cfg.n_nodes();
    let mut engine = build_engine_with(cfg, Box::new(MemoryRecorder::new()));
    engine.run_until(horizon);
    let records = engine.recorder_mut().take_records();

    let mut spans = Vec::new();
    for node in 0..n_nodes {
        let component = Endpoint::Node(node).to_string();
        // Records in time order; at the same instant the more specific
        // event wins (the `io` direction markers follow the generic
        // `state_transition` to communication mode).
        let mut current: Option<(SimTime, char)> = None;
        for rec in records.iter().filter(|r| r.component == component) {
            let Some(code) = classify(rec) else {
                continue;
            };
            match current.take() {
                Some((start, prev_code)) => {
                    if rec.time > start {
                        spans.push(Span {
                            node,
                            start,
                            end: rec.time,
                            code: prev_code,
                        });
                        current = Some((rec.time, code));
                    } else {
                        // Same instant: the more specific event wins.
                        let c = if specificity(code) >= specificity(prev_code) {
                            code
                        } else {
                            prev_code
                        };
                        current = Some((start, c));
                    }
                }
                None => current = Some((rec.time, code)),
            }
        }
        if let Some((start, code)) = current {
            if horizon > start {
                spans.push(Span {
                    node,
                    start,
                    end: horizon,
                    code,
                });
            }
        }
    }
    spans.sort_by_key(|s| (s.node, s.start));
    Timeline {
        n_nodes,
        horizon,
        spans,
    }
}

/// Map a structured record to an activity code; records that do not open
/// an activity span (power segments, deaths, …) return `None`.
fn classify(rec: &TraceRecord) -> Option<char> {
    match rec.kind {
        "state_transition" => Some(match rec.str_field("mode").unwrap_or("") {
            "computation" => 'P',
            // Refined by a following `io` marker at the same instant.
            "communication" => 'c',
            _ => '.',
        }),
        "io" => {
            let dir = rec.str_field("dir").unwrap_or("");
            let payload = rec.str_field("payload").unwrap_or("");
            Some(match (dir, payload) {
                (_, "ack") => 'a',
                ("send", _) => 'S',
                _ => 'R',
            })
        }
        _ => None,
    }
}

/// Direction markers beat generic mode transitions at the same instant.
fn specificity(code: char) -> u8 {
    match code {
        '.' => 0,
        'c' => 1,
        _ => 2,
    }
}

/// Render the timeline as one text row per node, `quantum` per character.
pub fn render_timeline(timeline: &Timeline, quantum: SimTime) -> String {
    assert!(quantum > SimTime::ZERO, "zero quantum");
    let cols = (timeline.horizon.as_micros() / quantum.as_micros()) as usize;
    let mut rows = vec![vec!['.'; cols]; timeline.n_nodes];
    for span in &timeline.spans {
        if span.code == '.' {
            continue;
        }
        let code = if span.code == 'c' { 'S' } else { span.code };
        let c0 = (span.start.as_micros() / quantum.as_micros()) as usize;
        let c1 = (span.end.as_micros().div_ceil(quantum.as_micros())) as usize;
        for cell in &mut rows[span.node][c0..c1.min(cols)] {
            *cell = code;
        }
    }
    let mut out = String::new();
    // Time ruler: a tick every frame delay would need cfg; mark every 10
    // columns instead.
    out.push_str("       ");
    for col in 0..cols {
        out.push(if col % 10 == 0 { '|' } else { ' ' });
    }
    out.push('\n');
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("{}  ", Endpoint::Node(i)));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("       (R recv, S send, P compute, a ack, . idle)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;

    /// Seconds each node spent in each activity: per-node
    /// `(recv, send, proc, ack, idle)`.
    fn activity_breakdown(timeline: &Timeline) -> Vec<[f64; 5]> {
        let mut out = vec![[0.0; 5]; timeline.n_nodes];
        for span in &timeline.spans {
            let secs = (span.end - span.start).as_secs_f64();
            let slot = match span.code {
                'R' => 0,
                'S' | 'c' => 1,
                'P' => 2,
                'a' => 3,
                _ => 4,
            };
            out[span.node][slot] += secs;
        }
        out
    }

    #[test]
    fn baseline_timeline_matches_fig2_shape() {
        // Fig. 2: RECV, PROC, SEND strictly serialized within each D.
        let tl = capture_timeline(Experiment::Exp1.config(), 4);
        assert_eq!(tl.n_nodes, 1);
        let breakdown = activity_breakdown(&tl);
        let [recv, send, proc, ack, _idle] = breakdown[0];
        // Over 4 frames: ~4×1.109 recv, ~4×1.1 proc, ~4×0.085 send.
        assert!((recv - 4.0 * 1.109).abs() < 0.4, "recv {recv}");
        assert!((proc - 4.0 * 1.1).abs() < 0.4, "proc {proc}");
        assert!(send > 0.2 && send < 0.6, "send {send}");
        assert_eq!(ack, 0.0);
    }

    #[test]
    fn two_node_timeline_matches_fig3_shape() {
        // Fig. 3: Node1 passes intermediate results to Node2; both stages
        // active every frame.
        let tl = capture_timeline(Experiment::Exp2.config(), 6);
        assert_eq!(tl.n_nodes, 2);
        let b = activity_breakdown(&tl);
        // Node1: heavy recv (the 10.1 KB frames), light proc.
        assert!(b[0][0] > 4.0, "node1 recv {}", b[0][0]);
        assert!(b[0][2] < b[1][2], "node1 proc must be lighter than node2");
        // Node2: dominated by PROC.
        assert!(b[1][2] > 6.0, "node2 proc {}", b[1][2]);
    }

    #[test]
    fn recovery_timeline_shows_acks() {
        let tl = capture_timeline(Experiment::Exp2B.config(), 6);
        let b = activity_breakdown(&tl);
        let total_ack: f64 = b.iter().map(|r| r[3]).sum();
        assert!(total_ack > 0.5, "ack time {total_ack}");
    }

    #[test]
    fn rotation_timeline_shows_the_doubling() {
        // Rotate every 2 frames; capture 6 frames: the doubling node runs
        // two PROC bursts back to back (Fig. 9's shape).
        let mut cfg = Experiment::Exp2C.config();
        cfg.technique = Some(crate::pipeline::Technique::Rotation {
            period_frames: std::num::NonZeroU64::new(2).unwrap(),
        });
        let tl = capture_timeline(cfg, 6);
        let b = activity_breakdown(&tl);
        // With rotation both nodes compute a comparable amount even over a
        // short window.
        let p0 = b[0][2];
        let p1 = b[1][2];
        assert!(p0 > 1.0 && p1 > 1.0, "proc {p0} / {p1}");
    }

    #[test]
    fn render_produces_one_row_per_node() {
        let tl = capture_timeline(Experiment::Exp2.config(), 3);
        let text = render_timeline(&tl, SimTime::from_millis(100));
        let rows: Vec<&str> = text.lines().collect();
        assert!(rows.iter().any(|r| r.starts_with("node1")));
        assert!(rows.iter().any(|r| r.starts_with("node2")));
        let node1_row = rows.iter().find(|r| r.starts_with("node1")).unwrap();
        assert!(node1_row.contains('R') && node1_row.contains('P'));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = capture_timeline(Experiment::Exp1.config(), 0);
    }
}
