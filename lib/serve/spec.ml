(* A sweep spec is the wire form of one (experiment x param grid x seeds)
   job.  Parsing is strict — unknown fields are rejected so a typo'd knob
   fails loudly at submission instead of silently running the default —
   and the caps below bound what one POST can ask the daemon to do. *)

open Sinr_obs

type t = {
  exp : string;
  params : int list;
  seeds : int list;
  jobs : int option;
  tag : string option;
}

let max_axis = 64
let max_cells = 1024

let known_fields = [ "exp"; "params"; "seeds"; "jobs"; "tag" ]

let int_list_of_json = function
  | Json.List l ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | j :: tl -> (
        match Json.to_int j with
        | Some i -> go (i :: acc) tl
        | None -> None)
    in
    go [] l
  | _ -> None

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let of_json j =
  match j with
  | Json.Obj fields ->
    let* () =
      match
        List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
      with
      | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
      | None -> Ok ()
    in
    let member k = Json.member k j in
    let* exp =
      match member "exp" with
      | Some (Json.Str exp) -> Ok exp
      | Some _ -> Error "exp: expected a string"
      | None -> Error "missing field \"exp\""
    in
    let* params =
      match Option.map int_list_of_json (member "params") with
      | Some (Some l) -> Ok l
      | _ -> Error "params: expected a list of integers"
    in
    let* seeds =
      match Option.map int_list_of_json (member "seeds") with
      | Some (Some l) -> Ok l
      | _ -> Error "seeds: expected a list of integers"
    in
    let* jobs =
      match member "jobs" with
      | None -> Ok None
      | Some f -> (
        match Json.to_int f with
        | Some n -> Ok (Some n)
        | None -> Error "jobs: expected an integer")
    in
    let* tag =
      match member "tag" with
      | None -> Ok None
      | Some (Json.Str tag) -> Ok (Some tag)
      | Some _ -> Error "tag: expected a string"
    in
    Ok { exp; params; seeds; jobs; tag }
  | _ -> Error "expected a JSON object"

let of_string s =
  match Json.parse_opt s with
  | None -> Error "malformed JSON"
  | Some j -> of_json j

let to_json t =
  Json.Obj
    (List.concat
       [ [ ("exp", Json.Str t.exp);
           ("params", Json.List (List.map Json.int t.params));
           ("seeds", Json.List (List.map Json.int t.seeds)) ];
         (match t.jobs with
          | None -> []
          | Some n -> [ ("jobs", Json.int n) ]);
         (match t.tag with
          | None -> []
          | Some s -> [ ("tag", Json.Str s) ]) ])

let cells t = List.length t.params * List.length t.seeds

let validate t =
  let axis name l =
    if l = [] then Error (name ^ ": must be non-empty")
    else if List.length l > max_axis then
      Error (Printf.sprintf "%s: at most %d entries" name max_axis)
    else if List.length (List.sort_uniq compare l) <> List.length l then
      Error (name ^ ": duplicate entries")
    else Ok ()
  in
  match axis "params" t.params with
  | Error _ as e -> e
  | Ok () -> (
    match axis "seeds" t.seeds with
    | Error _ as e -> e
    | Ok () ->
      if cells t > max_cells then
        Error (Printf.sprintf "grid too large (%d cells, cap %d)" (cells t)
                 max_cells)
      else
        match t.jobs with
        | Some n when n < 1 -> Error "jobs: must be >= 1"
        | _ -> (
          match t.tag with
          | Some tag
            when not
                   (String.length tag <= 64
                   && String.for_all
                        (fun c ->
                          (c >= 'a' && c <= 'z')
                          || (c >= 'A' && c <= 'Z')
                          || (c >= '0' && c <= '9')
                          || c = '-' || c = '_')
                        tag
                   && tag <> "") ->
            Error "tag: alphanumeric, '-' or '_', at most 64 chars"
          | _ -> Ok ()))
