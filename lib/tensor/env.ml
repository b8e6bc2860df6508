type 'a t = { name : string; read : string -> ('a, string) result }

let v name read = { name; read }

let bools =
  [ ("1", true); ("0", false); ("on", true); ("off", false); ("true", true);
    ("false", false); ("yes", true); ("no", false) ]

let bool name =
  v name (fun raw ->
      match List.assoc_opt raw bools with
      | Some b -> Ok b
      | None -> Error ("expected " ^ String.concat "|" (List.map fst bools)))

let int ?min name =
  v name (fun raw ->
      match (int_of_string_opt raw, min) with
      | Some n, None -> Ok n
      | Some n, Some m when n >= m -> Ok n
      | _, None -> Error "expected an integer"
      | _, Some m -> Error (Printf.sprintf "expected an integer >= %d" m))

let name var = var.name

let parse var raw =
  match var.read raw with
  | Ok x -> x
  | Error msg -> invalid_arg (Printf.sprintf "%s=%S: %s" var.name raw msg)

let get var =
  match Sys.getenv_opt var.name with
  | None | Some "" -> None
  | Some raw -> Some (parse var raw)
