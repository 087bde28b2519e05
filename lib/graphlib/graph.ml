(* Simple undirected graphs over nodes {0, ..., n-1}.

   SINR-induced connectivity graphs (G_{1-eps}, G_{1-2eps}), reliability
   graphs (H^mu_p[S]) and their estimates all share this representation:
   adjacency arrays sorted by neighbor id, with node ids doubling as indices
   into the placement array. *)

type t = {
  n : int;
  adj : int array array; (* adj.(v) sorted ascending, no self loops, no dups *)
}

let n t = t.n

let neighbors t v = t.adj.(v)

let degree t v = Array.length t.adj.(v)

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    if degree t v > !best then best := degree t v
  done;
  !best

let mem_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then false
  else begin
    (* Binary search in the sorted adjacency row. *)
    let row = t.adj.(u) in
    let lo = ref 0 and hi = ref (Array.length row - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if row.(mid) = v then found := true
      else if row.(mid) < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let normalize_row v row =
  let row = List.sort_uniq compare row in
  let row = List.filter (fun u -> u <> v) row in
  Array.of_list row

let of_edges ~n edges =
  let tmp = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: node out of range";
      if u <> v then begin
        tmp.(u) <- v :: tmp.(u);
        tmp.(v) <- u :: tmp.(v)
      end)
    edges;
  { n; adj = Array.mapi normalize_row tmp }

(* Build from a symmetric predicate; [candidates v] prunes the pairs that
   need testing (e.g. a spatial range query), defaulting to all nodes. *)
let of_predicate ~n ?candidates pred =
  let candidates =
    match candidates with
    | Some f -> f
    | None -> fun _ -> List.init n Fun.id
  in
  let tmp = Array.make n [] in
  for v = 0 to n - 1 do
    List.iter
      (fun u -> if u > v && pred v u then begin
           tmp.(v) <- u :: tmp.(v);
           tmp.(u) <- v :: tmp.(u)
         end)
      (candidates v)
  done;
  { n; adj = Array.mapi normalize_row tmp }

(* Adopt ready-made rows: the caller guarantees the representation
   invariant (see [t]) and symmetry; nothing is copied. *)
let of_rows rows = { n = Array.length rows; adj = rows }

let empty n = { n; adj = Array.make n [||] }

let edges t =
  let acc = ref [] in
  for v = 0 to t.n - 1 do
    Array.iter (fun u -> if u > v then acc := (v, u) :: !acc) t.adj.(v)
  done;
  List.rev !acc

let num_edges t =
  let c = ref 0 in
  for v = 0 to t.n - 1 do
    c := !c + Array.length t.adj.(v)
  done;
  !c / 2

let iter_edges t f =
  for v = 0 to t.n - 1 do
    Array.iter (fun u -> if u > v then f v u) t.adj.(v)
  done

(* Subgraph induced by the node set [keep] (as original ids; the result keeps
   the original id space, dropping edges incident to removed nodes). *)
let induced t keep =
  let mask = Array.make t.n false in
  List.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Graph.induced: node out of range";
      mask.(v) <- true)
    keep;
  let adj =
    Array.mapi
      (fun v row ->
        if not mask.(v) then [||]
        else Array.of_list (List.filter (fun u -> mask.(u)) (Array.to_list row)))
      t.adj
  in
  { n = t.n; adj }

let union a b =
  if a.n <> b.n then invalid_arg "Graph.union: size mismatch";
  let adj =
    Array.init a.n (fun v ->
        normalize_row v (Array.to_list a.adj.(v) @ Array.to_list b.adj.(v)))
  in
  { n = a.n; adj }

let is_subgraph ~sub ~super =
  sub.n = super.n
  && begin
       let ok = ref true in
       iter_edges sub (fun u v -> if not (mem_edge super u v) then ok := false);
       !ok
     end

let equal a b =
  a.n = b.n
  && begin
       let ok = ref true in
       for v = 0 to a.n - 1 do
         if a.adj.(v) <> b.adj.(v) then ok := false
       done;
       !ok
     end

let pp ppf t =
  Fmt.pf ppf "graph(n=%d, m=%d)" t.n (num_edges t)
