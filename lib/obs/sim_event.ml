(* The absMAC-level event: the one definition every reader shares.

   The absMAC specification (Section 4.4) is stated over executions —
   ordered sequences of bcast/rcv/ack events.  The per-run [Trace], the
   flight-recorder ring, [Trace_report] and the tests all speak this one
   variant; JSON exists only at the edges, built by [to_json] when a dump
   is written and read back by [of_json]. *)

type t =
  | Bcast of { node : int; msg : int }  (* environment handed msg to node *)
  | Rcv of { node : int; msg : int; from : int }
  | Ack of { node : int; msg : int }
  | Abort of { node : int; msg : int }
  | Wake of { node : int }
  | Crash of { node : int }
  | Recover of { node : int } (* crash–recover adversaries revive the node *)
  | Deliver of { node : int; from : int }
      (* engine-level decoding, below the MAC: [node] decoded [from] *)
  | Note of string

let pp ppf = function
  | Bcast { node; msg } -> Fmt.pf ppf "bcast(m%d)_%d" msg node
  | Rcv { node; msg; from } -> Fmt.pf ppf "rcv(m%d<-%d)_%d" msg from node
  | Ack { node; msg } -> Fmt.pf ppf "ack(m%d)_%d" msg node
  | Abort { node; msg } -> Fmt.pf ppf "abort(m%d)_%d" msg node
  | Wake { node } -> Fmt.pf ppf "wake_%d" node
  | Crash { node } -> Fmt.pf ppf "crash_%d" node
  | Recover { node } -> Fmt.pf ppf "recover_%d" node
  | Deliver { node; from } -> Fmt.pf ppf "deliver(<-%d)_%d" from node
  | Note s -> Fmt.pf ppf "note(%s)" s

let fields ev =
  let open Json in
  let head kind node = [ ("ev", Str kind); ("node", int node) ] in
  match ev with
  | Bcast { node; msg } -> head "bcast" node @ [ ("msg", int msg) ]
  | Rcv { node; msg; from } ->
    head "rcv" node @ [ ("msg", int msg); ("from", int from) ]
  | Ack { node; msg } -> head "ack" node @ [ ("msg", int msg) ]
  | Abort { node; msg } -> head "abort" node @ [ ("msg", int msg) ]
  | Wake { node } -> head "wake" node
  | Crash { node } -> head "crash" node
  | Recover { node } -> head "recover" node
  | Deliver { node; from } ->
    [ ("ev", Str "deliver"); ("rx", int node); ("tx", int from) ]
  | Note s -> [ ("ev", Str "note"); ("text", Str s) ]

let to_json ev = Json.Obj (fields ev)

let of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int in
  let str k = Option.bind (Json.member k j) Json.to_string in
  match (str "ev", int "node", int "msg") with
  | Some "bcast", Some node, Some msg -> Some (Bcast { node; msg })
  | Some "rcv", Some node, Some msg ->
    Option.map (fun from -> Rcv { node; msg; from }) (int "from")
  | Some "ack", Some node, Some msg -> Some (Ack { node; msg })
  | Some "abort", Some node, Some msg -> Some (Abort { node; msg })
  | Some "wake", Some node, _ -> Some (Wake { node })
  | Some "crash", Some node, _ -> Some (Crash { node })
  | Some "recover", Some node, _ -> Some (Recover { node })
  | Some "deliver", _, _ ->
    (match (int "rx", int "tx") with
     | Some node, Some from -> Some (Deliver { node; from })
     | _ -> None)
  | Some "note", _, _ -> Option.map (fun s -> Note s) (str "text")
  | _ -> None
