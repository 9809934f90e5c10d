//! Checkpoint/resume: a long-running stream can be serialized mid-way
//! and resumed with identical results — the operational requirement for
//! deploying the one-pass algorithms on unbounded feeds.

use diversity_streaming::{Smm, SmmExt, SmmGen};
use metric::{CosineDistance, Euclidean, SparseVector, VecPoint};

fn stream(n: usize) -> Vec<VecPoint> {
    (0..n)
        .map(|i| VecPoint::from([((i * 37) % 509) as f64, ((i * 101) % 211) as f64]))
        .collect()
}

#[test]
fn smm_checkpoint_roundtrip_is_lossless() {
    let points = stream(2_000);
    let (first, second) = points.split_at(points.len() / 2);

    // Uninterrupted run.
    let direct = Smm::run(Euclidean, 6, 12, points.iter().cloned());

    // Interrupted run: push half, serialize, restore, push the rest.
    let mut s = Smm::new(Euclidean, 6, 12);
    for p in first {
        s.push(p.clone());
    }
    let json = serde_json::to_string(s.state()).expect("serialize checkpoint");
    let restored = serde_json::from_str(&json).expect("deserialize checkpoint");
    let mut s = Smm::resume(Euclidean, restored);
    for p in second {
        s.push(p.clone());
    }
    let resumed = s.finish();

    assert_eq!(direct.coreset, resumed.coreset);
    assert_eq!(direct.phases, resumed.phases);
    assert_eq!(direct.final_threshold, resumed.final_threshold);
}

#[test]
fn smm_ext_checkpoint_roundtrip_is_lossless() {
    let points = stream(1_500);
    let (first, second) = points.split_at(700);

    let direct = SmmExt::run(Euclidean, 4, 8, points.iter().cloned());

    let mut s = SmmExt::new(Euclidean, 4, 8);
    for p in first {
        s.push(p.clone());
    }
    let json = serde_json::to_string(s.state()).expect("serialize");
    let mut s = SmmExt::resume(Euclidean, serde_json::from_str(&json).expect("deserialize"));
    for p in second {
        s.push(p.clone());
    }
    let resumed = s.finish();

    assert_eq!(direct.coreset, resumed.coreset);
    assert_eq!(direct.kernel, resumed.kernel);
}

#[test]
fn smm_gen_checkpoint_roundtrip_is_lossless() {
    let points = stream(1_500);
    let (first, second) = points.split_at(400);

    let direct = SmmGen::run(Euclidean, 5, 10, points.iter().cloned());

    let mut s = SmmGen::new(Euclidean, 5, 10);
    for p in first {
        s.push(p.clone());
    }
    let json = serde_json::to_string(s.state()).expect("serialize");
    let mut s = SmmGen::resume(Euclidean, serde_json::from_str(&json).expect("deserialize"));
    for p in second {
        s.push(p.clone());
    }
    let resumed = s.finish();

    assert_eq!(direct.kernel, resumed.kernel);
    assert_eq!(direct.coreset, resumed.coreset);
    assert_eq!(direct.delta, resumed.delta);
}

#[test]
fn checkpoint_at_every_tenth_point_still_lossless() {
    // Paranoid variant: serialize/deserialize every 10 points.
    let points = stream(300);
    let direct = Smm::run(Euclidean, 3, 6, points.iter().cloned());

    let mut s = Smm::new(Euclidean, 3, 6);
    for (i, p) in points.iter().enumerate() {
        s.push(p.clone());
        if i % 10 == 9 {
            let json = serde_json::to_string(s.state()).expect("serialize");
            s = Smm::resume(Euclidean, serde_json::from_str(&json).expect("deserialize"));
        }
    }
    let resumed = s.finish();
    assert_eq!(direct.coreset, resumed.coreset);
}

/// Bag-of-words documents with at least two entries each.
fn docs(n: usize) -> Vec<SparseVector> {
    (0..n)
        .map(|i| {
            SparseVector::new(
                (0..2 + i % 5)
                    .map(|j| {
                        (
                            ((i * 7 + j * 13) % 90) as u32,
                            1.0 + ((i + j) % 4) as f64 * 0.5,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// An edit to a stored sparse vector's entries and norm.
type Corruption = fn(&mut Vec<(u32, f64)>, &mut f64);

/// Rewrites the first sparse vector in `json` after `corrupt` edits its
/// entries and norm (written back verbatim, invariants unchecked).
fn corrupt_first_vector(json: &str, corrupt: Corruption) -> String {
    let start = json
        .find(r#"{"entries":"#)
        .expect("checkpoint holds a vector");
    let end = start + json[start..].find('}').expect("vector closes") + 1;
    let v: SparseVector = serde_json::from_str(&json[start..end]).expect("stored vector is valid");
    let (mut entries, mut norm) = (v.entries().to_vec(), v.norm());
    corrupt(&mut entries, &mut norm);
    let body: Vec<String> = entries
        .iter()
        .map(|(d, x)| format!("[{d},{x:?}]"))
        .collect();
    format!(
        r#"{}{{"entries":[{}],"norm":{norm:?}}}{}"#,
        &json[..start],
        body.join(","),
        &json[end..]
    )
}

#[test]
fn corrupted_sparse_smm_ext_checkpoint_is_rejected() {
    let points = docs(600);
    let (first, second) = points.split_at(250);
    let resume = |json: &str| -> Result<SmmExt<SparseVector, CosineDistance>, serde_json::Error> {
        Ok(SmmExt::resume(CosineDistance, serde_json::from_str(json)?))
    };

    let mut s = SmmExt::new(CosineDistance, 4, 8);
    for p in first {
        s.push(p.clone());
    }
    let json = serde_json::to_string(s.state()).expect("serialize");

    // The intact checkpoint resumes losslessly.
    let mut resumed = resume(&json).expect("intact checkpoint resumes");
    for p in second {
        resumed.push(p.clone());
    }
    let direct = SmmExt::run(CosineDistance, 4, 8, points.iter().cloned());
    let resumed = resumed.finish();
    assert_eq!(direct.coreset, resumed.coreset);
    assert_eq!(direct.kernel, resumed.kernel);

    // Each corruption breaks one invariant and is refused on decode.
    let cases: [(&str, Corruption); 4] = [
        ("strictly increasing", |e, _| e.swap(0, 1)),
        ("strictly increasing", |e, _| e[1].0 = e[0].0),
        ("finite and nonzero", |e, _| e[0].1 = 0.0),
        ("differs", |_, norm| *norm *= 1.5),
    ];
    for (want, corrupt) in cases {
        let bad = corrupt_first_vector(&json, corrupt);
        assert_ne!(bad, json);
        match resume(&bad) {
            Ok(_) => panic!("corrupted checkpoint resumed (expected `{want}`)"),
            Err(e) => assert!(e.to_string().contains(want), "{want}: {e}"),
        }
    }
}
