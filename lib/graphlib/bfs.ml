(* Breadth-first search: hop distances, diameters, r-neighborhoods.

   The paper's runtime bounds are stated in terms of hop distances and
   diameters of the SINR-induced graphs (D_{G_{1-eps}}, D_{G_{1-2eps}}) and
   its analysis manipulates r-neighborhoods N_{G,r}(v) (Section 4.1). *)

let unreachable = max_int

(* Breadth-first search from [src] over one int-array queue: every node
   it reaches gets [stamp.(u) = gen] and its hop distance in [dist], and
   [queue.(0 .. count-1)] lists them in visiting order (non-decreasing
   distance); returns [count].  Stamping instead of clearing lets the
   diameter reuse the three arrays across all its sources. *)
let search g ~queue ~dist ~stamp ~(gen : int) src =
  stamp.(src) <- gen;
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = Array.unsafe_get queue !head in
    incr head;
    let dv = Array.unsafe_get dist v + 1 in
    let row = Graph.neighbors g v in
    for k = 0 to Array.length row - 1 do
      let u = Array.unsafe_get row k in
      if Array.unsafe_get stamp u <> gen then begin
        Array.unsafe_set stamp u gen;
        Array.unsafe_set dist u dv;
        Array.unsafe_set queue !tail u;
        incr tail
      end
    done
  done;
  !tail

let check_source g src =
  if src < 0 || src >= Graph.n g then invalid_arg "Bfs.distances: bad source"

(* Hop distances from [src]; [unreachable] marks disconnected nodes. *)
let distances g ~src =
  check_source g src;
  let n = Graph.n g in
  let dist = Array.make n unreachable in
  ignore
    (search g ~queue:(Array.make n 0) ~dist ~stamp:(Array.make n 0) ~gen:1 src);
  dist

let hop_distance g u v =
  let d = (distances g ~src:u).(v) in
  if d = unreachable then None else Some d

(* Eccentricity of [src] restricted to its connected component. *)
let eccentricity g ~src =
  let dist = distances g ~src in
  Array.fold_left
    (fun acc d -> if d <> unreachable && d > acc then d else acc)
    0 dist

(* Exact diameter of the component containing [within] (default: the
   component of node 0): the largest eccentricity over the component,
   one BFS per member.  The BFS runs allocate nothing past the three
   arrays they share, so the cost is O(members * component edges). *)
let diameter ?(within = 0) g =
  check_source g within;
  let n = Graph.n g in
  let queue = Array.make n 0 and dist = Array.make n 0
  and stamp = Array.make n (-1) in
  let count = search g ~queue ~dist ~stamp ~gen:0 within in
  let members = Array.sub queue 0 count in
  let best = ref 0 in
  Array.iteri
    (fun k v ->
      let last = search g ~queue ~dist ~stamp ~gen:(k + 1) v - 1 in
      let e = dist.(queue.(last)) in
      if e > !best then best := e)
    members;
  !best

(* Closed r-neighborhood N_{G,r}(v) = { u | d_G(v,u) <= r } (includes v),
   matching the paper's definition in Section 4.1. *)
let ball g ~src ~r =
  let n = Graph.n g in
  let dist = Array.make n unreachable in
  let q = Queue.create () in
  let acc = ref [ src ] in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if dist.(v) < r then
      Array.iter
        (fun u ->
          if dist.(u) = unreachable then begin
            dist.(u) <- dist.(v) + 1;
            acc := u :: !acc;
            Queue.add u q
          end)
        (Graph.neighbors g v)
  done;
  List.rev !acc

(* N_{G,r}(W) for a node set W: union of the members' r-neighborhoods. *)
let ball_of_set g ~srcs ~r =
  let n = Graph.n g in
  let dist = Array.make n unreachable in
  let q = Queue.create () in
  let acc = ref [] in
  List.iter
    (fun s ->
      if dist.(s) = unreachable then begin
        dist.(s) <- 0;
        acc := s :: !acc;
        Queue.add s q
      end)
    srcs;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if dist.(v) < r then
      Array.iter
        (fun u ->
          if dist.(u) = unreachable then begin
            dist.(u) <- dist.(v) + 1;
            acc := u :: !acc;
            Queue.add u q
          end)
        (Graph.neighbors g v)
  done;
  List.rev !acc
