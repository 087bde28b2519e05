(* Sets of node ids with an O(size) ascending walk.

   Membership is a bitmap.  The members' ids also sit in a sorted array
   that lags behind updates: a removed id stays in it until the next walk
   drops it, and an added id waits in [adds] until the next walk merges
   it in.  A walk merges the sorted array with a min-heap that holds those
   pending additions plus every id added above the walk's cursor while it
   runs; the ids still present after their visit are written, in order,
   to [spare], which then becomes the sorted array.  [listed v] says that
   v sits in exactly one of those places (the sorted array, [adds], the
   heap, or in flight in the walk), so no id is ever listed twice. *)

module Bits = State.Bits

type t = {
  mem : Bits.t;
  listed : Bits.t;
  mutable ids : int array;    (* ascending; may still hold removed ids *)
  mutable len : int;
  mutable spare : int array;  (* the next walk's output buffer *)
  mutable adds : int array;   (* additions since the last walk, unsorted *)
  mutable nadds : int;
  mutable heap : int array;   (* min-heap; empty outside a walk *)
  mutable nheap : int;
  mutable walking : bool;
  mutable cursor : int;       (* id being visited; -1 before the first *)
}

let create n =
  if n < 0 then invalid_arg "Node_set.create: negative size";
  { mem = Bits.create n;
    listed = Bits.create n;
    ids = [||];
    len = 0;
    spare = [||];
    adds = [||];
    nadds = 0;
    heap = [||];
    nheap = 0;
    walking = false;
    cursor = -1 }

let check t v =
  if v < 0 || v >= Bits.length t.mem then
    invalid_arg "Node_set: id out of range"

(* Grow-only buffers: room for [need] entries, doubling. *)
let grow a need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need (max 8 (2 * Array.length a))) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let push_add t v =
  t.adds <- grow t.adds (t.nadds + 1);
  t.adds.(t.nadds) <- v;
  t.nadds <- t.nadds + 1

let heap_push t v =
  t.heap <- grow t.heap (t.nheap + 1);
  let h = t.heap in
  let i = ref t.nheap in
  t.nheap <- t.nheap + 1;
  while !i > 0 && h.((!i - 1) / 2) > v do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- v

let heap_pop t =
  let h = t.heap in
  let top = h.(0) in
  let n = t.nheap - 1 in
  t.nheap <- n;
  if n > 0 then begin
    let last = h.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- last
  end;
  top

let mem t v =
  check t v;
  Bits.get t.mem v

let add t v =
  check t v;
  if not (Bits.get t.mem v) then begin
    Bits.set t.mem v true;
    if not (Bits.get t.listed v) then begin
      Bits.set t.listed v true;
      if t.walking && v > t.cursor then heap_push t v else push_add t v
    end
  end

let remove t v =
  check t v;
  Bits.set t.mem v false

let clear t =
  if t.walking then invalid_arg "Node_set.clear: inside a walk";
  let drop v =
    Bits.set t.mem v false;
    Bits.set t.listed v false
  in
  for k = 0 to t.len - 1 do
    drop t.ids.(k)
  done;
  for k = 0 to t.nadds - 1 do
    drop t.adds.(k)
  done;
  t.len <- 0;
  t.nadds <- 0

let iter t f =
  if t.walking then invalid_arg "Node_set.iter: reentrant walk";
  for k = 0 to t.nadds - 1 do
    heap_push t t.adds.(k)
  done;
  t.nadds <- 0;
  t.walking <- true;
  t.cursor <- -1;
  let ids = t.ids and len = t.len in
  let i = ref 0 and o = ref 0 in
  let inflight = ref (-1) in
  let emit v =
    t.spare <- grow t.spare (!o + 1);
    t.spare.(!o) <- v;
    incr o
  in
  (* After its visit an id stays listed iff it is still a member. *)
  let settle v =
    if Bits.get t.mem v then emit v else Bits.set t.listed v false
  in
  (* A raising callback leaves the rest of the walk unvisited: it stays
     listed, the heap's share as pending additions. *)
  let finish () =
    if !inflight >= 0 then settle !inflight;
    for k = !i to len - 1 do
      emit ids.(k)
    done;
    while t.nheap > 0 do
      push_add t (heap_pop t)
    done;
    let out = t.spare in
    t.spare <- ids;
    t.ids <- out;
    t.len <- !o;
    t.walking <- false;
    t.cursor <- -1
  in
  let rec walk () =
    let a = if !i < len then Array.unsafe_get ids !i else max_int in
    let b = if t.nheap > 0 then t.heap.(0) else max_int in
    if a < max_int || b < max_int then begin
      let v =
        if a < b then begin
          incr i;
          a
        end
        else heap_pop t
      in
      if Bits.get t.mem v then begin
        inflight := v;
        t.cursor <- v;
        f v;
        inflight := -1
      end;
      settle v;
      walk ()
    end
  in
  match walk () with
  | () -> finish ()
  | exception e ->
    finish ();
    raise e
