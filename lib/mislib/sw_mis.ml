(* Modified Schneider–Wattenhofer MIS with non-unique temporary labels
   (paper Section 9.3.2 and Lemma 10.1).

   The paper uses the log*-time MIS algorithm of Schneider and Wattenhofer
   [47] for growth-bounded graphs, modified in two ways:

   1. nodes compete with *temporary random labels* from [1, poly(Λ/ε)] that
      may collide, instead of unique IDs, and
   2. the algorithm stops at a predetermined time (a fixed number of
      stages); nodes still unresolved are simply ignored (they join neither
      the independent set nor its dominated fringe).

   We implement the stage/phase structure the paper itself spells out:
   every node is in state {competitor, ruler, ruled, dominator, dominated};
   a stage resets each competitor's value r_v to its label and then runs
   O(log* N) phases; in a phase competitors exchange r_v, a strict local
   minimum joins the MIS (dominator), a tie stalls (ruler — retried next
   stage), and everyone else shrinks r_v by a Cole–Vishkin bit-reduction
   step against the minimum neighbor.  Each stage ends with a few "settle"
   phases of pure local-minimum election to harvest the constant-range
   colors that the reduction produces.

   Ties are broken lexicographically by (r_v, label_v): with locally unique
   labels the algorithm always makes progress, and with colliding labels it
   stalls exactly as the paper's modification intends.

   Guarantees (tested): the dominator set is independent in *every*
   execution, even with adversarial labels; with locally unique labels it is
   maximal w.h.p. within the stage budget.

   The machine is driven one CONGEST round at a time ([outgoing] /
   [deliver] / [advance]) so that the caller can simulate each round over
   the SINR layer — or run it reliably with {!run_congest} in tests. *)

type status = Competitor | Ruler | Dominator | Dominated | Dropped

type msg = { st : status; r : int; label : int }

type node = {
  mutable state : status;
  mutable r : int;
  label : int;
  mutable inbox : msg list; (* messages of the current round *)
}

(* State is kept for the participants only, so a machine costs
   O(participants) to build and to advance whatever the node count: [ids]
   holds them ascending and [nodes] their records at the same index.
   Every other node is [Dropped] for good, sends nothing, and what is
   delivered to it is never read. *)
type t = {
  ids : int array;
  nodes : node array;
  label_bits : int;
  phases_per_stage : int;
  settle_phases : int;
  stages : int;
  mutable round : int;
}

let settle_phases_default = 6

let phases_for ~label_bits =
  Log_star.log_star_int (1 lsl (min 30 label_bits)) + 2

let create ~n ~participants ~labels ~label_bits ~stages =
  if Array.length labels <> n then invalid_arg "Sw_mis.create: labels size";
  if stages < 1 then invalid_arg "Sw_mis.create: stages < 1";
  let ids = Array.of_list (List.sort_uniq Int.compare participants) in
  Array.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Sw_mis.create: participant")
    ids;
  let nodes =
    Array.map
      (fun v ->
        { state = Competitor; r = labels.(v); label = labels.(v); inbox = [] })
      ids
  in
  { ids;
    nodes;
    label_bits;
    phases_per_stage = phases_for ~label_bits + settle_phases_default;
    settle_phases = settle_phases_default;
    stages;
    round = 0 }

let total_rounds t = t.stages * t.phases_per_stage

let finished t = t.round >= total_rounds t

(* [v]'s index in [ids], or [-1] for a non-participant: binary search. *)
let index t v =
  let lo = ref 0 and hi = ref (Array.length t.ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ids.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length t.ids && t.ids.(!lo) = v then !lo else -1

let status t v =
  let i = index t v in
  if i < 0 then Dropped else t.nodes.(i).state

(* Every state keeps announcing itself (a resolved or dropped node sends a
   status beacon): receivers must be able to distinguish "neighbor is
   silent by protocol" from "message lost", because a driver running over a
   lossy medium drops a node that misses any neighbor's round message. *)
let outgoing t v =
  let i = index t v in
  if i < 0 then None
  else
    let nd = t.nodes.(i) in
    Some { st = nd.state; r = nd.r; label = nd.label }

let deliver t ~node ~payload =
  let i = index t node in
  if i >= 0 then begin
    let nd = t.nodes.(i) in
    nd.inbox <- payload :: nd.inbox
  end

(* A node whose communication failed drops out for the rest of this MIS
   computation (paper Section 9.3.2: it stops participating in the epoch). *)
let drop t v =
  let i = index t v in
  if i >= 0 then begin
    let nd = t.nodes.(i) in
    if nd.state <> Dominator && nd.state <> Dominated then nd.state <- Dropped
  end

(* Lexicographic key used for strict-minimum election and bit reduction. *)
let key nd = (nd.r, nd.label)

let key_of_msg (m : msg) = (m.r, m.label)

(* Cole–Vishkin reduction step of (r, label) against the minimum neighbor
   key: find the lowest bit position where the concatenated values differ
   and encode (position, own bit). *)
let reduce t (r, l) (mr, ml) =
  let mask = (1 lsl t.label_bits) - 1 in
  let mine = (r lsl t.label_bits) lor (l land mask) in
  let theirs = (mr lsl t.label_bits) lor (ml land mask) in
  let diff = mine lxor theirs in
  if diff = 0 then r (* identical keys: stall, handled as a tie upstream *)
  else begin
    let pos =
      let rec lowest i d = if d land 1 = 1 then i else lowest (i + 1) (d lsr 1) in
      lowest 0 diff
    in
    (2 * pos) + ((mine lsr pos) land 1)
  end

let advance t =
  if not (finished t) then begin
    let in_settle =
      t.round mod t.phases_per_stage >= t.phases_per_stage - t.settle_phases
    in
    (* Apply the phase transition using this round's inboxes. *)
    Array.iter
      (fun nd ->
        (match nd.state with
         | Competitor | Ruler ->
           let dominator_near =
             List.exists (fun m -> m.st = Dominator) nd.inbox
           in
           if dominator_near then nd.state <- Dominated
           else begin
             let competitors =
               List.filter (fun m -> m.st = Competitor || m.st = Ruler) nd.inbox
             in
             match competitors with
             | [] -> nd.state <- Dominator (* isolated competitor *)
             | _ :: _ ->
               let m =
                 List.fold_left
                   (fun acc c -> if key_of_msg c < acc then key_of_msg c else acc)
                   (key_of_msg (List.hd competitors))
                   (List.tl competitors)
               in
               if key nd < m then nd.state <- Dominator
               else if key nd = m then nd.state <- Ruler
               else begin
                 nd.state <- Competitor;
                 if not in_settle then nd.r <- reduce t (key nd) m
               end
           end
         | Dominator | Dominated | Dropped -> ());
        nd.inbox <- [])
      t.nodes;
    t.round <- t.round + 1;
    (* Stage boundary: rulers re-compete and every competitor resets r_v.
       This must happen strictly *between* rounds — resetting before the
       transition would compare post-reset keys against pre-reset messages
       and could elect two adjacent dominators. *)
    if (not (finished t)) && t.round mod t.phases_per_stage = 0 then
      Array.iter
        (fun nd ->
          match nd.state with
          | Ruler -> nd.state <- Competitor; nd.r <- nd.label
          | Competitor -> nd.r <- nd.label
          | Dominator | Dominated | Dropped -> ())
        t.nodes
  end

let dominators t =
  let acc = ref [] in
  for i = Array.length t.ids - 1 downto 0 do
    if t.nodes.(i).state = Dominator then acc := t.ids.(i) :: !acc
  done;
  !acc

let resolved t =
  Array.for_all
    (fun nd ->
      match nd.state with
      | Dominator | Dominated | Dropped -> true
      | Competitor | Ruler -> false)
    t.nodes

(* Reliable CONGEST execution over an explicit graph: the reference driver
   used by tests and by the oracle mode of Algorithm 9.1. *)
let run_congest graph t =
  let open Sinr_graph in
  while not (finished t) do
    Array.iter
      (fun v ->
        match outgoing t v with
        | None -> ()
        | Some m ->
          Array.iter
            (fun u -> deliver t ~node:u ~payload:m)
            (Graph.neighbors graph v))
      t.ids;
    advance t
  done
