//! A server built with `cache_capacity: 0` must not pay for the cache it
//! does not have: no cache counter ever moves (signatures are not even
//! computed, shared answers not built), and every read path — single,
//! batched, ranked, through a `ServerReader` — answers exactly like a
//! cache-on server over the same store.

use matchrules::data::dirty::{generate_dirty, NoiseConfig};
use matchrules::engine::{ExecConfig, Preset};
use matchrules::server::{MatchServer, ServerConfig};
use matchrules::service::{Record, RecordId};

fn server(cache_capacity: usize) -> MatchServer {
    let engine = Preset::Extended.builder().top_k(5).threads(1).build().unwrap();
    let config = ServerConfig { shards: 2, cache_capacity, exec: ExecConfig::serial() };
    MatchServer::with_config(engine, config)
}

#[test]
fn cache_off_server_counts_nothing_and_answers_like_cache_on() {
    let shape = Preset::Extended.paper_setting();
    let data = generate_dirty(&shape.pair, &shape.target, 60, &NoiseConfig::default());
    let (off, on) = (server(0), server(64));
    for s in [&off, &on] {
        let batch: Vec<(RecordId, Record)> = (data.billing.tuples().iter())
            .map(|t| {
                let record = Record::from_values(s.store_schema(), t.values().to_vec()).unwrap();
                (RecordId(t.id()), record)
            })
            .collect();
        s.upsert_batch(&batch).unwrap();
    }
    let probes: Vec<Record> = (data.credit.tuples().iter())
        .map(|t| Record::from_values(off.probe_schema(), t.values().to_vec()).unwrap())
        .collect();
    let mut reader = off.reader();
    // Two passes: the second would be all hits on a caching server.
    for _ in 0..2 {
        let batched_off = off.query_batch(&probes).unwrap();
        let batched_on = on.query_batch(&probes).unwrap();
        for (i, probe) in probes.iter().enumerate() {
            let want = on.query(probe).unwrap();
            assert_eq!(off.query(probe).unwrap(), want);
            assert_eq!(reader.query(probe).unwrap(), want);
            assert_eq!((&batched_off[i], &batched_on[i]), (&want, &want));
            let ranked = on.query_ranked(probe, 3, 0.1).unwrap();
            assert_eq!(off.query_ranked(probe, 3, 0.1).unwrap(), ranked);
            assert_eq!(reader.query_ranked(probe, 3, 0.1).unwrap(), ranked);
        }
    }
    let stats = off.stats();
    assert_eq!(
        (stats.cache_hits, stats.cache_misses, stats.cache_invalidations, stats.cache_entries),
        (0, 0, 0, 0),
        "a disabled cache counts nothing"
    );
    assert!(on.stats().cache_hits > 0, "the cache-on twin did serve repeats from its cache");
}
