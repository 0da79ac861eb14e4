//! E4 — tamper-proof content: detection of corrupted replicas.

use crate::engine;
use qb_bench::Table;
use qb_chain::AccountId;
use qb_dweb::WebPage;
use qb_load::scenario::sized;

pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E4: tamper injection on stored replicas (detection = corrupted bytes never served as valid)",
        &["replicas_corrupted", "fetch_outcome", "tampering_served_undetected"],
    );
    for corrupt_all in [false, true] {
        let mut qb = engine(sized(48, 4, 0xE4 + corrupt_all as u64));
        let page = WebPage::new(
            "bank/login",
            "Bank login",
            (0..150).map(|i| format!("legit{} ", i)).collect::<String>(),
            vec![],
        );
        let report = qb.publish(1, AccountId(1_000), &page).expect("publish");
        qb.seal();
        let root = report.object.expect("object").root;
        let holders = qb.storage.pinned_holders(&root);
        let to_corrupt = if corrupt_all {
            holders.len()
        } else {
            holders.len() / 2
        };
        for h in holders.iter().take(to_corrupt) {
            qb.storage
                .corrupt_pinned(*h, &root, b"<html>phishing</html>".to_vec());
        }
        let outcome = qb.storage.get_object(&mut qb.net, &mut qb.dht, 30, root);
        let (desc, undetected) = match outcome {
            Ok((bytes, _)) => {
                let served_corrupt = !String::from_utf8_lossy(&bytes).contains("legit0");
                ("served verified original".to_string(), served_corrupt)
            }
            Err(e) => (format!("rejected: {e}"), false),
        };
        t.row(&[
            &format!("{to_corrupt}/{}", holders.len()),
            &desc,
            &if undetected { "YES (failure)" } else { "no" },
        ]);
    }
    vec![t]
}
