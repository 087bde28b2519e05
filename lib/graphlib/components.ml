(* Connected components.

   The paper assumes G_{1-eps} is connected (Section 4.6) and Theorem 12.6
   needs the connected components of G and G-tilde to have the same vertex
   sets; experiments check both with this module. *)

(* Component label of every node; labels are 0-based and dense.  One
   int-array queue serves every component's BFS; the labels double as
   the visited marks. *)
let labels g =
  let n = Graph.n g in
  let label = Array.make n (-1) and queue = Array.make n 0 in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) = -1 then begin
      let id = !next in
      incr next;
      label.(v) <- id;
      queue.(0) <- v;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let w = Array.unsafe_get queue !head in
        incr head;
        let row = Graph.neighbors g w in
        for k = 0 to Array.length row - 1 do
          let u = Array.unsafe_get row k in
          if Array.unsafe_get label u = -1 then begin
            Array.unsafe_set label u id;
            Array.unsafe_set queue !tail u;
            incr tail
          end
        done
      done
    end
  done;
  label

let count g =
  let label = labels g in
  1 + Array.fold_left max (-1) label

let is_connected g = Graph.n g = 0 || count g = 1

let components g =
  let label = labels g in
  let k = 1 + Array.fold_left max (-1) label in
  let buckets = Array.make k [] in
  for v = Graph.n g - 1 downto 0 do
    buckets.(label.(v)) <- v :: buckets.(label.(v))
  done;
  Array.to_list buckets

(* Do two graphs on the same node set induce the same partition into
   components?  (The hypothesis of Theorem 12.6.) *)
let same_components a b =
  Graph.n a = Graph.n b
  && begin
       (* The map la.(v) <-> lb.(v) must be a bijection between labels:
          a pair (x, y) together with (x, y') for y <> y' breaks it. *)
       let la = labels a and lb = labels b in
       let n = Graph.n a in
       let ok = ref true in
       let by_a : (int, int) Hashtbl.t = Hashtbl.create 16 in
       let by_b : (int, int) Hashtbl.t = Hashtbl.create 16 in
       for v = 0 to n - 1 do
         (match Hashtbl.find_opt by_a la.(v) with
          | None -> Hashtbl.add by_a la.(v) lb.(v)
          | Some y -> if y <> lb.(v) then ok := false);
         match Hashtbl.find_opt by_b lb.(v) with
         | None -> Hashtbl.add by_b lb.(v) la.(v)
         | Some x -> if x <> la.(v) then ok := false
       done;
       !ok
     end
