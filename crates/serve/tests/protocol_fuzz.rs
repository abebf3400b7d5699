//! Protocol hardening: the frame decoders must never panic, whatever the
//! bytes — truncated frames, oversized length prefixes, bit flips, and
//! arbitrary garbage all come back as typed [`WireError`]s (or, for a
//! lucky bit flip, a successfully decoded frame), never a crash. The
//! cluster health frames (Ping/Pong) and the model plane are fuzzed
//! alongside the originals, and the retired session-handoff tags decode
//! as malformed.

use lhmm_cellsim::tower::TowerId;
use lhmm_cellsim::traj::{CellularPoint, CellularTrajectory};
use lhmm_core::registry::{ModelManifest, ModelVersion};
use lhmm_geo::Point;
use lhmm_network::graph::SegmentId;
use lhmm_serve::protocol::{
    read_request, read_response, write_request, write_response, Request, Response, WireError,
    MAX_FRAME,
};
use lhmm_serve::{RejectReason, WireMatchError};
use proptest::prelude::*;
use std::io::Cursor;

fn sample_point(i: u32) -> CellularPoint {
    CellularPoint {
        tower: TowerId(i),
        pos: Point::new(100.0 * i as f64, -50.0 * i as f64),
        t: 30.0 * i as f64,
        smoothed: if i.is_multiple_of(2) {
            Some(Point::new(99.0 * i as f64, -49.0 * i as f64))
        } else {
            None
        },
    }
}

/// Every request variant, encoded.
fn request_corpus() -> Vec<Vec<u8>> {
    let traj = CellularTrajectory {
        points: (0..4).map(sample_point).collect(),
    };
    let requests = [
        Request::OneShot { traj },
        Request::Open {
            client: 7,
            lag: 4,
            version: 2,
        },
        Request::Push {
            client: 7,
            point: sample_point(3),
        },
        Request::Finish { client: 7 },
        Request::Ping,
        Request::Swap { version: 2 },
        Request::Shadow {
            version: 3,
            mirror_every: 8,
        },
        Request::Versions,
        Request::Refresh,
    ];
    requests
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            write_request(&mut buf, r).expect("encode request");
            buf
        })
        .collect()
}

/// Every response variant, encoded.
fn response_corpus() -> Vec<Vec<u8>> {
    let responses = [
        Response::Route {
            segments: vec![SegmentId(1), SegmentId(5), SegmentId(2)],
            degraded: true,
        },
        Response::Reject(RejectReason::QueueFull),
        Response::Reject(RejectReason::Invalid),
        Response::Failed(WireMatchError { code: 0, a: 0, b: 0 }),
        Response::Pushed { committed: 11 },
        Response::Pong { sessions: 3 },
        Response::Models {
            active: 2,
            previous: 1,
            shadow: 3,
            mirror_every: 8,
            refreshed: 0,
            manifests: vec![
                ModelManifest {
                    version: ModelVersion(1),
                    fingerprint: 0x1234_5678_9abc_def0,
                    weight_bytes: 4096,
                    parent: None,
                    label: "seed".to_string(),
                },
                ModelManifest {
                    version: ModelVersion(2),
                    fingerprint: 0x0fed_cba9_8765_4321,
                    weight_bytes: 4096,
                    parent: Some(ModelVersion(1)),
                    label: "refresh-1".to_string(),
                },
            ],
        },
    ];
    responses
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            write_response(&mut buf, r).expect("encode response");
            buf
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage never panics either decoder.
    #[test]
    fn random_bytes_never_panic_the_decoders(raw in proptest::collection::vec(0u32..256, 0..256usize)) {
        let data: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = read_request(&mut Cursor::new(&data));
        let _ = read_response(&mut Cursor::new(&data));
    }

    /// Any strict prefix of a valid frame is a typed error, never a panic
    /// and never a bogus success.
    #[test]
    fn truncated_frames_fail_with_typed_errors(pick in 0usize..64, frac in 0.0f64..1.0) {
        let requests = request_corpus();
        let responses = response_corpus();
        let encoded = &requests[pick % requests.len()];
        let cut = ((encoded.len() as f64) * frac) as usize;
        prop_assume!(cut < encoded.len());
        match read_request(&mut Cursor::new(&encoded[..cut])) {
            Err(WireError::Io(_) | WireError::Malformed(_) | WireError::TooLarge(_)) => {}
            Ok(_) => prop_assert!(false, "decoded a truncated request frame"),
        }
        let encoded = &responses[pick % responses.len()];
        let cut = ((encoded.len() as f64) * frac) as usize;
        prop_assume!(cut < encoded.len());
        match read_response(&mut Cursor::new(&encoded[..cut])) {
            Err(WireError::Io(_) | WireError::Malformed(_) | WireError::TooLarge(_)) => {}
            Ok(_) => prop_assert!(false, "decoded a truncated response frame"),
        }
    }

    /// Flipping any single bit of a valid frame never panics: the decoder
    /// either still produces a frame or fails with a typed error.
    #[test]
    fn bit_flipped_frames_never_panic(pick in 0usize..64, pos in 0usize..10_000, bit in 0u32..8) {
        let requests = request_corpus();
        let responses = response_corpus();
        let mut bytes = requests[pick % requests.len()].clone();
        let i = pos % bytes.len();
        bytes[i] ^= 1u8 << bit;
        let _ = read_request(&mut Cursor::new(&bytes));
        let mut bytes = responses[pick % responses.len()].clone();
        let i = pos % bytes.len();
        bytes[i] ^= 1u8 << bit;
        let _ = read_response(&mut Cursor::new(&bytes));
    }

    /// Appending trailing garbage after a valid frame still decodes the
    /// frame (framing is length-prefixed, not delimiter-based).
    #[test]
    fn trailing_garbage_does_not_corrupt_a_valid_frame(pick in 0usize..64, tail in proptest::collection::vec(0u32..256, 0..32usize)) {
        let requests = request_corpus();
        let mut bytes = requests[pick % requests.len()].clone();
        bytes.extend(tail.iter().map(|&b| b as u8));
        prop_assert!(read_request(&mut Cursor::new(&bytes)).is_ok());
    }
}

#[test]
fn oversized_length_prefix_is_a_typed_error_for_every_tag() {
    // Each tag, retired ones included, with a declared length just past
    // the cap: the decoder must refuse before allocating or reading the
    // body.
    for tag in [
        0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x81, 0x82, 0x83,
        0x84, 0x85, 0x86, 0x87,
    ] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        bytes.push(tag);
        bytes.extend_from_slice(&[0u8; 64]);
        let req = read_request(&mut Cursor::new(&bytes));
        let resp = read_response(&mut Cursor::new(&bytes));
        assert!(
            matches!(req, Err(WireError::TooLarge(_))),
            "tag {tag:#x}: request decoder accepted an oversized frame: {req:?}"
        );
        assert!(
            matches!(resp, Err(WireError::TooLarge(_))),
            "tag {tag:#x}: response decoder accepted an oversized frame: {resp:?}"
        );
    }
}

/// The retired handoff tags (0x06 snapshot and 0x07 restore requests,
/// the 0x86 state response) are unknown to both decoders: whatever body
/// follows, they come back as `Malformed`, never as a panic or a frame.
#[test]
fn retired_handoff_tags_are_malformed_not_a_panic() {
    let bodies: [&[u8]; 4] = [&[], &[7, 0, 0, 0, 0, 0, 0, 0], &[0xff; 64], &[1, 3, 0, 0, 0]];
    for body in bodies {
        for (tag, request) in [(0x06u8, true), (0x07, true), (0x86, false)] {
            let mut payload = vec![tag];
            payload.extend_from_slice(body);
            let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&payload);
            let got = if request {
                read_request(&mut Cursor::new(&bytes)).map(|_| ())
            } else {
                read_response(&mut Cursor::new(&bytes)).map(|_| ())
            };
            assert!(
                matches!(got, Err(WireError::Malformed(_))),
                "tag {tag:#x} with a {}-byte body: {got:?}",
                body.len()
            );
        }
    }
}
