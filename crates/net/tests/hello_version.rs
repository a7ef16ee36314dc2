//! HELLO pins the protocol version: each side requires exactly
//! [`PROTOCOL_VERSION`] from its peer. A server refuses any other
//! client version with an error naming both, and a client refuses a
//! server that announces any other version with [`NetError::Version`].

use std::net::{TcpListener, TcpStream};

use stair_net::protocol::{
    read_request, read_response, write_request, write_response, Request, Response, ServerInfo,
    PROTOCOL_VERSION,
};
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

#[test]
fn server_refuses_a_client_of_any_other_version() {
    let dir = std::env::temp_dir().join(format!("stair-hello-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 4,
    };
    let set = ShardSet::create(&dir, 2, &opts).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write_request(&mut stream, 1, &Request::Hello { version }).expect("send HELLO");
        let (id, resp) = read_response(&mut stream).expect("HELLO reply");
        assert_eq!(id, 1);
        let Response::Error(msg) = resp else {
            panic!("v{version} must be refused, got {resp:?}")
        };
        assert!(
            msg.contains("version")
                && msg.contains(&format!("v{PROTOCOL_VERSION}"))
                && msg.contains(&format!("v{version}")),
            "rejection should name both versions, got: {msg}"
        );
    }

    // The exact version is accepted.
    let client = Client::connect(&addr).expect("connect");
    assert_eq!(client.info().version, PROTOCOL_VERSION);
    handle.shutdown();
    running.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_refuses_a_server_of_any_other_version() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let (id, req) = read_request(&mut stream).expect("HELLO");
        assert_eq!(
            req,
            Request::Hello {
                version: PROTOCOL_VERSION
            }
        );
        let info = ServerInfo {
            version: 3,
            shards: 1,
            capacity: 4096,
            block_size: 64,
            range_blocks: 16,
            codec: "rs:6,4,2".into(),
        };
        write_response(&mut stream, id, &Response::Hello(info)).expect("reply");
    });
    match Client::connect(&addr) {
        Err(NetError::Version { ours, theirs }) => {
            assert_eq!((ours, theirs), (PROTOCOL_VERSION, 3));
        }
        Err(other) => panic!("expected NetError::Version, got {other}"),
        Ok(_) => panic!("a v3 server must be refused"),
    }
    fake.join().expect("fake server");
}
