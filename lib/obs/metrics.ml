(* Process-global metrics registry.

   Instrumented modules create their handles once at module-init time
   ([counter]/[gauge]/[histogram] are get-or-create), so the hot path never
   touches the registry: an update is a single branch on the global enable
   flag plus one atomic RMW (counters/gauges) or a handful of plain writes
   into a per-domain shard (histograms).  With the switch off the whole
   subsystem costs one load-and-branch per call site, which is what lets
   the instrumentation live inside [Engine.step_select] and the per-slot MAC
   machines without a measurable tax (acceptance: < 2% on the sinr_resolve
   kernel).

   Domain safety: instrumented kernels run inside [Sinr_par.Pool] workers,
   so every update must tolerate concurrent writers from several domains.
   Counters and gauges live in [Atomic.t] cells (an update is one RMW / one
   store, never torn).  Histograms are *sharded*: each domain that observes
   into a histogram owns a private shard (bucket array + count + sum/min/
   max, reached through [Domain.DLS] like the per-domain scratch in
   lib/phys), so the hot path is mutex-free — no lock, no RMW, no false
   sharing between domains.  Shards are merged lock-free at read time
   (snapshot/quantile): the merge walks the shard list in creation order,
   so the merged result — including the float sum — is deterministic for a
   given set of quiescent shards.  A snapshot taken *while* other domains
   observe is a consistent-enough live view (each shard is read once; a
   concurrent observation is either fully missed or fully seen per field),
   which is exactly what a /metrics scrape of a running sweep needs; exact
   totals are guaranteed once writers have quiesced (e.g. after
   [Domain.join], which publishes the writers' plain stores).

   [reset] bumps a global shard epoch instead of zeroing in place: stale
   shards become invisible to the merge immediately, and each writing
   domain lazily re-shards on its next observation.  The registry table
   itself is guarded by a global mutex (registration is module-init-time
   cold path, snapshot/reset are tooling paths).

   Histograms are log2-bucketed: bucket 0 holds values in [0, 1), bucket i
   (i >= 1) holds [2^(i-1), 2^i).  Quantiles are estimated by linear
   interpolation inside the bucket that crosses the requested rank, clamped
   to the exact observed min/max.  That gives factor-2 worst-case error on
   arbitrary data and exact answers for the small-integer distributions
   (per-slot delivery counts, MIS winner counts) we mostly observe. *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let is_enabled () = Atomic.get on

(* Run [f] with the registry enabled, restoring the previous state. *)
let with_enabled f =
  let prev = Atomic.get on in
  Atomic.set on true;
  Fun.protect ~finally:(fun () -> Atomic.set on prev) f

type counter = { c_name : string; count : int Atomic.t }

type gauge = {
  g_name : string;
  value : float Atomic.t;
  g_set : bool Atomic.t;
}

let nbuckets = 64

(* One domain's private slice of a histogram.  [sh_stats] is a floatarray
   (sum at 0, min at 1, max at 2) so the float updates are unboxed stores —
   a mutable float field in this mixed record would re-box on every
   observation.  Only the owning domain ever writes a shard; readers merge
   without locks. *)
type hshard = {
  sh_epoch : int; (* shard generation; stale shards are invisible *)
  sh_seq : int; (* creation order, fixes the merge (float-sum) order *)
  mutable sh_count : int;
  sh_buckets : int array; (* log2 buckets, length [nbuckets] *)
  sh_stats : floatarray; (* 0: sum, 1: min, 2: max *)
}

type histogram = {
  h_name : string;
  h_key : hshard ref Domain.DLS.key;
      (* per-domain cache of this domain's current shard *)
  h_shards : hshard list Atomic.t;
      (* every shard of the current epoch (plus, transiently, stale ones
         filtered out at merge time) *)
}

(* Bumped by [reset]; a shard is live iff its epoch matches. *)
let shard_epoch = Atomic.make 0
let shard_seq = Atomic.make 0

(* DLS initial value: an empty shard with an impossible epoch, so the
   first observation (and the first after a reset) takes the slow
   re-shard path. *)
let dead_shard =
  { sh_epoch = -1;
    sh_seq = -1;
    sh_count = 0;
    sh_buckets = [||];
    sh_stats = Float.Array.create 0 }

(* Cold path: make this domain a fresh shard for [h], publish it for the
   mergers (CAS push), and cache it in the domain-local cell.  Raced by
   [reset]: a shard pushed with a stale epoch is simply never merged and
   gets replaced on the next observation. *)
let fresh_shard h cell =
  let stats = Float.Array.create 3 in
  Float.Array.set stats 0 0.;
  Float.Array.set stats 1 infinity;
  Float.Array.set stats 2 neg_infinity;
  let s =
    { sh_epoch = Atomic.get shard_epoch;
      sh_seq = Atomic.fetch_and_add shard_seq 1;
      sh_count = 0;
      sh_buckets = Array.make nbuckets 0;
      sh_stats = stats }
  in
  let rec push () =
    let cur = Atomic.get h.h_shards in
    if not (Atomic.compare_and_set h.h_shards cur (s :: cur)) then push ()
  in
  push ();
  cell := s;
  s

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name wrap make unwrap =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m ->
    (match unwrap m with
     | Some h -> h
     | None ->
       invalid_arg
         (Printf.sprintf "Metrics: %s already registered as a %s" name
            (kind_name m)))
  | None ->
    let h = make () in
    Hashtbl.replace registry name (wrap h);
    h

let counter name =
  register name
    (fun c -> Counter c)
    (fun () -> { c_name = name; count = Atomic.make 0 })
    (function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let gauge name =
  register name
    (fun g -> Gauge g)
    (fun () ->
      { g_name = name; value = Atomic.make 0.; g_set = Atomic.make false })
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let histogram name =
  register name
    (fun h -> Histogram h)
    (fun () ->
      { h_name = name;
        h_key = Domain.DLS.new_key (fun () -> ref dead_shard);
        h_shards = Atomic.make [] })
    (function Histogram h -> Some h | Counter _ | Gauge _ -> None)

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)
(* ------------------------------------------------------------------ *)

(* A label set is canonicalized once, at handle-creation time, into a
   [{k="v",...}] suffix appended to the registry name (keys sorted,
   values escaped Prometheus-style).  Labeled handles are therefore
   interned through the same get-or-create registry as unlabeled ones,
   and the hot-path update functions below never see labels at all —
   an [observe] on a labeled histogram is byte-for-byte the same code
   as on an unlabeled one.  Sinks recover the structure with
   {!split_name}. *)

type labels = string (* "" (none) or a canonical "{k=\"v\",...}" suffix *)

let no_labels = ""

let valid_label_key k =
  String.length k > 0
  && (match k.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       k

(* Prometheus label-value escaping: backslash, double-quote, newline. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels pairs =
  match pairs with
  | [] -> ""
  | _ ->
    let pairs =
      List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
    in
    let rec check = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Metrics.labels: duplicate key %S" a);
        check rest
      | _ -> ()
    in
    check pairs;
    List.iter
      (fun (k, _) ->
        if not (valid_label_key k) then
          invalid_arg (Printf.sprintf "Metrics.labels: invalid key %S" k))
      pairs;
    let buf = Buffer.create 32 in
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      pairs;
    Buffer.add_char buf '}';
    Buffer.contents buf

let labeled_name name ls =
  if String.contains name '{' then
    invalid_arg
      (Printf.sprintf "Metrics: base metric name %S may not contain '{'" name);
  name ^ ls

let counter_with name ls = counter (labeled_name name ls)
let gauge_with name ls = gauge (labeled_name name ls)
let histogram_with name ls = histogram (labeled_name name ls)

(* Inverse of the encoding above: recover (family, pairs) from a registry
   name.  Malformed suffixes (which only arise if someone registers a raw
   name containing '{' by hand) degrade to the whole string as the family
   with no labels, so sinks never raise on a snapshot. *)
let split_name name =
  match String.index_opt name '{' with
  | None -> (name, [])
  | Some i ->
    let n = String.length name in
    let fam = String.sub name 0 i in
    let buf = Buffer.create 16 in
    let exception Malformed in
    (try
       if name.[n - 1] <> '}' then raise Malformed;
       let pos = ref (i + 1) in
       let pairs = ref [] in
       (* empty label set "{}" never produced by [labels]; treat as none *)
       if !pos = n - 1 then (fam, [])
       else begin
         let rec pair () =
           (* key *)
           let kstart = !pos in
           while !pos < n && name.[!pos] <> '=' do incr pos done;
           if !pos >= n - 1 then raise Malformed;
           let k = String.sub name kstart (!pos - kstart) in
           incr pos;
           if !pos >= n - 1 || name.[!pos] <> '"' then raise Malformed;
           incr pos;
           (* value, with escapes *)
           Buffer.clear buf;
           let rec value () =
             if !pos >= n - 1 then raise Malformed;
             match name.[!pos] with
             | '"' -> incr pos
             | '\\' ->
               if !pos + 1 >= n - 1 then raise Malformed;
               (match name.[!pos + 1] with
                | '\\' -> Buffer.add_char buf '\\'
                | '"' -> Buffer.add_char buf '"'
                | 'n' -> Buffer.add_char buf '\n'
                | _ -> raise Malformed);
               pos := !pos + 2;
               value ()
             | c ->
               Buffer.add_char buf c;
               incr pos;
               value ()
           in
           value ();
           pairs := (k, Buffer.contents buf) :: !pairs;
           if !pos = n - 1 then ()
           else if name.[!pos] = ',' then begin
             incr pos;
             pair ()
           end
           else raise Malformed
         in
         pair ();
         (fam, List.rev !pairs)
       end
     with Malformed | Invalid_argument _ -> (name, []))

(* ------------------------------------------------------------------ *)
(* Hot-path updates                                                    *)
(* ------------------------------------------------------------------ *)

let incr c = if Atomic.get on then Atomic.incr c.count

let add c k =
  if Atomic.get on then ignore (Atomic.fetch_and_add c.count k)

let set g v =
  if Atomic.get on then begin
    Atomic.set g.value v;
    Atomic.set g.g_set true
  end

(* Index of the log2 bucket holding [v] (clamped to the top bucket).  For
   v >= 1, floor(log2 v) is exactly the IEEE-754 biased exponent minus the
   bias — a couple of integer ops on the hot path instead of a libm log2
   call (and immune to the round-below-integer hazard log2 has at exact
   powers of two).  Infinities land in the top bucket via the clamp. *)
let bucket_of v =
  if v < 1. then 0
  else
    let e =
      (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52)
       land 0x7ff)
      - 1023
    in
    if e + 1 >= nbuckets then nbuckets - 1 else e + 1

(* Lower / upper bound of bucket [i]: [0,1) for 0, [2^(i-1), 2^i) above. *)
let bucket_lo i = if i = 0 then 0. else Float.pow 2. (float_of_int (i - 1))
let bucket_hi i = Float.pow 2. (float_of_int i)

(* Mutex-free: a DLS load, an epoch check, then plain stores into this
   domain's own shard. *)
let observe h v =
  if Atomic.get on then begin
    let v = if Float.is_nan v then 0. else Float.max 0. v in
    let cell = Domain.DLS.get h.h_key in
    let s = !cell in
    let s =
      if s.sh_epoch = Atomic.get shard_epoch then s else fresh_shard h cell
    in
    s.sh_count <- s.sh_count + 1;
    let st = s.sh_stats in
    Float.Array.unsafe_set st 0 (Float.Array.unsafe_get st 0 +. v);
    if v < Float.Array.unsafe_get st 1 then Float.Array.unsafe_set st 1 v;
    if v > Float.Array.unsafe_get st 2 then Float.Array.unsafe_set st 2 v;
    let i = bucket_of v in
    Array.unsafe_set s.sh_buckets i (Array.unsafe_get s.sh_buckets i + 1)
  end

let observe_int h k = observe h (float_of_int k)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type merged = {
  m_count : int;
  m_sum : float;
  m_min : float;
  m_max : float;
  m_buckets : int array;
}

(* Lock-free merge of a histogram's live shards.  Shards are walked in
   creation order (sh_seq), so the float accumulation — and therefore the
   merged result — is deterministic for a given shard population. *)
let merge h =
  let e = Atomic.get shard_epoch in
  let shards =
    Atomic.get h.h_shards
    |> List.filter (fun s -> s.sh_epoch = e)
    |> List.sort (fun a b -> compare a.sh_seq b.sh_seq)
  in
  let buckets = Array.make nbuckets 0 in
  let count = ref 0 in
  let sum = ref 0. in
  let mn = ref infinity in
  let mx = ref neg_infinity in
  List.iter
    (fun s ->
      count := !count + s.sh_count;
      sum := !sum +. Float.Array.get s.sh_stats 0;
      let smin = Float.Array.get s.sh_stats 1 in
      let smax = Float.Array.get s.sh_stats 2 in
      if smin < !mn then mn := smin;
      if smax > !mx then mx := smax;
      for i = 0 to nbuckets - 1 do
        buckets.(i) <- buckets.(i) + s.sh_buckets.(i)
      done)
    shards;
  { m_count = !count; m_sum = !sum; m_min = !mn; m_max = !mx;
    m_buckets = buckets }

let counter_value c = Atomic.get c.count
let gauge_value g = Atomic.get g.value
let histogram_count h = (merge h).m_count
let histogram_sum h = (merge h).m_sum
let histogram_buckets h = (merge h).m_buckets

(* Estimate the [q]-quantile (q in [0,1]) of a log2-bucketed count array by
   walking the cumulative counts and interpolating linearly inside the
   crossing bucket, then clamping to the observed [lo]/[hi].  Standalone so
   tools that build their own bucket arrays (trace-report's latency
   percentiles) share the estimator and its tests. *)
let estimate_quantile ~counts ~total ~lo ~hi q =
  if total = 0 then nan
  else begin
    let n = Array.length counts in
    let rank = q *. float_of_int total in
    let rec walk i seen =
      if i >= n then hi
      else
        let seen' = seen +. float_of_int counts.(i) in
        if seen' >= rank && counts.(i) > 0 then begin
          let blo = bucket_lo i and bhi = bucket_hi i in
          let frac = (rank -. seen) /. float_of_int counts.(i) in
          blo +. (Float.max 0. (Float.min 1. frac) *. (bhi -. blo))
        end
        else walk (i + 1) seen'
    in
    let est = walk 0 0. in
    Float.max lo (Float.min hi est)
  end

let quantile h q =
  let m = merge h in
  estimate_quantile ~counts:m.m_buckets ~total:m.m_count ~lo:m.m_min
    ~hi:m.m_max q

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_summary

type snapshot = (string * value) list

let summarize_merged m =
  let q p =
    estimate_quantile ~counts:m.m_buckets ~total:m.m_count ~lo:m.m_min
      ~hi:m.m_max p
  in
  { count = m.m_count;
    sum = m.m_sum;
    min = (if m.m_count = 0 then 0. else m.m_min);
    max = (if m.m_count = 0 then 0. else m.m_max);
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99 }

let summarize h = summarize_merged (merge h)

let snapshot () =
  let metrics =
    Mutex.lock registry_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
  in
  (* Metrics that never fired are omitted: a snapshot describes what the
     run actually did, and sinks need not special-case empty histograms.
     Each histogram is merged exactly once. *)
  List.fold_left
    (fun acc (name, m) ->
      match m with
      | Counter c ->
        let v = Atomic.get c.count in
        if v > 0 then (name, Counter_v v) :: acc else acc
      | Gauge g ->
        if Atomic.get g.g_set then (name, Gauge_v (Atomic.get g.value)) :: acc
        else acc
      | Histogram h ->
        let m = merge h in
        if m.m_count > 0 then (name, Histogram_v (summarize_merged m)) :: acc
        else acc)
    [] metrics
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  (* Invalidate every histogram shard in one step: bump the epoch first so
     writers re-shard, then drop the stale shard lists so they can be
     collected. *)
  Atomic.incr shard_epoch;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c.count 0
      | Gauge g ->
        Atomic.set g.value 0.;
        Atomic.set g.g_set false
      | Histogram h -> Atomic.set h.h_shards [])
    registry

(* Test isolation: zero every metric, invalidate all per-domain shards
   (including those owned by domains spawned in earlier test cases), and
   leave the registry disabled.  Handles stay valid — module-init handles
   keep working — so a test that enables the registry starts from a clean,
   fully deterministic state regardless of what ran before it. *)
let reset_for_tests () =
  set_enabled false;
  reset ()

(* Test/tooling escape hatch: value of a named counter in this process. *)
let counter_peek name =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> Some (Atomic.get c.count)
  | Some (Gauge _ | Histogram _) | None -> None
