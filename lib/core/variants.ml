module P = Dpu_protocols

let ct = P.Abcast_ct.protocol_name

let sequencer = P.Abcast_seq.protocol_name

let token = P.Abcast_token.protocol_name

let all = [ ct; sequencer; token ]

let register_all ?batching system =
  P.Udp.register system;
  P.Rp2p.register system;
  P.Fd.register system;
  P.Rbcast.register system;
  P.Consensus_ct.register system;
  P.Abcast_ct.register ?batching system;
  P.Abcast_seq.register ?batching system;
  P.Abcast_token.register system
